//! Answering point ops allocates nothing on either server architecture:
//! a GETV, a PUTV or a REMOVEV goes from the socket through the slab and
//! back to the socket without a heap allocation.
//!
//! A counting global allocator counts every allocation of the process,
//! so this is a test binary of its own, with one test: nothing else runs
//! beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use poly_net::proto::{write_frame, Request, Response};
use poly_net::{Arch, NetServer};
use poly_store::{PolyStore, StoreConfig};

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn note() {
    // A statistic that publishes no other data, hence Relaxed.
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; `note` never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn value(key: u64, round: u8) -> Vec<u8> {
    vec![key as u8 ^ round; 64]
}

// Each round: a GETV hit, a GETV miss and a PUTV overwrite per key.
const KEYS: u64 = 128;
const OPS: u64 = 3 * KEYS;

#[test]
fn answering_point_ops_allocates_nothing() {
    for arch in Arch::ALL {
        let allocs = count_allocs(arch);
        assert!(
            allocs < OPS / 8,
            "[{arch}] answering {OPS} point ops allocated {allocs} times after a warm-up round"
        );
    }
}

/// Allocations made while `arch` answers a second round of point ops.
fn count_allocs(arch: Arch) -> u64 {
    let store = Arc::new(PolyStore::new(StoreConfig { shards: 4, ..Default::default() }));
    for key in 0..KEYS {
        store.put(key, &value(key, 0));
    }
    let server = NetServer::builder("127.0.0.1:0").architecture(arch).serve(store).expect("bind");
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_nodelay(true).unwrap();

    // Both rounds are encoded, and their replies' room allocated, before
    // anything is counted.
    let rounds: Vec<(Vec<Request>, Vec<u8>, Vec<u8>)> = (1..=2u8)
        .map(|round| {
            let reqs: Vec<Request> = (0..KEYS)
                .flat_map(|key| {
                    [
                        Request::GetV(key),
                        Request::GetV(KEYS + key),
                        Request::PutV(key, value(key, round)),
                    ]
                })
                .collect();
            let mut burst = Vec::new();
            for req in &reqs {
                write_frame(&mut burst, &req.encode()).unwrap();
            }
            // A hit and an overwrite return a 64-byte value; a miss none.
            let replies = vec![0u8; (KEYS * (3 * (4 + 6) + 2 * 64)) as usize];
            (reqs, burst, replies)
        })
        .collect();

    let mut counted = Vec::new();
    for (round, (_, burst, replies)) in rounds.iter().enumerate() {
        // The first round warms the loop's buffers up; the second counts.
        let mut replies = replies.clone();
        ARMED.store(round == 1, Ordering::Relaxed);
        let before = ALLOCS.load(Ordering::Relaxed);
        raw.write_all(burst).unwrap();
        // Every reply read means every frame answered.
        raw.read_exact(&mut replies).unwrap();
        counted.push(ALLOCS.load(Ordering::Relaxed) - before);
        ARMED.store(false, Ordering::Relaxed);
        check(&rounds[round].0, &replies, round as u8 + 1);
    }
    assert_eq!(server.net_stats().frames, 2 * OPS);
    counted[1]
}

/// Checks each reply of round `round` against what its request should get.
fn check(reqs: &[Request], mut replies: &[u8], round: u8) {
    for req in reqs {
        let len = u32::from_le_bytes(replies[..4].try_into().unwrap()) as usize;
        let reply = Response::decode(&replies[4..4 + len], req).expect("a well-formed reply");
        replies = &replies[4 + len..];
        let want = match *req {
            Request::GetV(key) if key < KEYS => Some(value(key, round - 1)),
            Request::GetV(_) => None,
            Request::PutV(key, _) => Some(value(key, round - 1)),
            _ => unreachable!("the rounds hold point requests only"),
        };
        assert_eq!(reply, Response::ValueV(want), "the reply to {req:?}");
    }
    assert!(replies.is_empty(), "{} bytes past the last reply", replies.len());
}
