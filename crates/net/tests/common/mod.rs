//! A thread's CPU time from `/proc/self/task`, for the test binaries that
//! check how much CPU a serving or client thread burns while it waits.

/// Clock ticks per second of `/proc/<pid>/task/<tid>/stat` times
/// (`USER_HZ`, 100 on every Linux architecture).
pub const TICKS_PER_S: f64 = 100.0;

/// utime + stime, in clock ticks, of the one thread named `name`.
pub fn thread_ticks(name: &str) -> u64 {
    let (mut found, mut ticks) = (0, 0);
    for task in std::fs::read_dir("/proc/self/task").expect("procfs").flatten() {
        let Ok(stat) = std::fs::read_to_string(task.path().join("stat")) else { continue };
        // `tid (comm) state …`: comm may hold spaces, so split at its ')'.
        let Some((head, rest)) = stat.rsplit_once(')') else { continue };
        if !head.ends_with(&format!("({name}")) {
            continue;
        }
        // Counting from state as field 3, utime is field 14, stime 15.
        let field = |i: usize| rest.split_whitespace().nth(i - 3).unwrap().parse::<u64>().unwrap();
        found += 1;
        ticks += field(14) + field(15);
    }
    assert_eq!(found, 1, "threads named {name}");
    ticks
}
