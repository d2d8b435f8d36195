//! `poly-report` — the one report schema registry of the "Unlocking
//! Energy" reproduction.
//!
//! Before this crate, the JSONL/CSV cell schema lived twice: once in the
//! native `store` CLI and once in `poly-scenarios`' `CellReport`, held
//! byte-identical by convention and by a pair of end-to-end tests that
//! would only catch a drift after the fact. Here the schema is *data*:
//! a [`Schema`] is an ordered list of typed [`Column`]s, and every
//! emitter renders a row by pairing the registry with a [`Value`] vector
//! ([`Schema::row_json`] / [`Schema::row_csv`]). Adding a column in one
//! emitter without the other is now a compile- or test-time failure, not
//! a silent fork.
//!
//! Three registries are canonical (see [`columns`]):
//!
//! * [`columns::STORE_CELL`] — the native `store` CLI's sweep cell;
//! * [`columns::SCENARIO_CELL`] — the simulated sweep cell
//!   (`poly-scenarios`);
//! * [`columns::TIMELINE`] — one `poly-trace` window of the
//!   `*.timeline.jsonl` sink, shared by the native and simulated
//!   sweeps.
//!
//! Serialization rules are the ones the emitters already agreed on,
//! now in one place: floats render with Rust's shortest round-trip
//! `{}` formatting and non-finite values become `null`; absent optional
//! measurements are `null` in both sinks so the columns always exist and
//! parse uniformly; CSV fields are RFC-4180-quoted only when they need
//! to be, so the common case stays byte-identical to the historical
//! unquoted output.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod columns;

/// The type a column's values must carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// A string (JSON-escaped and quoted; CSV-quoted only when needed).
    Str,
    /// An unsigned integer.
    U64,
    /// A float (non-finite renders as `null`).
    F64,
    /// A boolean (`true`/`false` in both sinks).
    Bool,
    /// An optional unsigned integer (`None` renders as `null`).
    OptU64,
    /// An optional float (`None` and non-finite render as `null`).
    OptF64,
}

/// One named, typed column of a [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Column {
    /// Column name (the JSON key / CSV header entry).
    pub name: &'static str,
    /// Value type the column accepts.
    pub ty: ColumnType,
    /// Whether the column appears in the CSV sink. JSON-only columns
    /// exist for historical byte-compatibility: the store CLI's
    /// `energy_model` constant was never a CSV column.
    pub in_csv: bool,
}

impl Column {
    /// A column present in both sinks.
    pub const fn new(name: &'static str, ty: ColumnType) -> Self {
        Self { name, ty, in_csv: true }
    }

    /// A column present only in the JSON sink.
    pub const fn json_only(name: &'static str, ty: ColumnType) -> Self {
        Self { name, ty, in_csv: false }
    }
}

/// One row's value for one column. Borrowed strings keep row rendering
/// allocation-light.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value<'a> {
    /// A string value.
    Str(&'a str),
    /// An unsigned integer value.
    U64(u64),
    /// A float value.
    F64(f64),
    /// A boolean value.
    Bool(bool),
    /// An optional unsigned integer value.
    OptU64(Option<u64>),
    /// An optional float value.
    OptF64(Option<f64>),
}

impl Value<'_> {
    fn matches(&self, ty: ColumnType) -> bool {
        matches!(
            (self, ty),
            (Value::Str(_), ColumnType::Str)
                | (Value::U64(_), ColumnType::U64)
                | (Value::F64(_), ColumnType::F64)
                | (Value::Bool(_), ColumnType::Bool)
                | (Value::OptU64(_), ColumnType::OptU64)
                | (Value::OptF64(_), ColumnType::OptF64)
        )
    }

    fn render_json(&self) -> String {
        match self {
            Value::Str(s) => json_escape(s),
            Value::U64(v) => v.to_string(),
            Value::F64(v) => fmt_f64(*v),
            Value::Bool(b) => b.to_string(),
            Value::OptU64(v) => fmt_opt_u64(*v),
            Value::OptF64(v) => fmt_opt_f64(*v),
        }
    }

    fn render_csv(&self) -> String {
        match self {
            Value::Str(s) => csv_field(s),
            // Every non-string shape renders identically in both sinks
            // (no value of theirs ever needs CSV quoting).
            other => other.render_json(),
        }
    }
}

/// An ordered, typed column list: the single source of truth one family
/// of reports serializes against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schema {
    columns: &'static [Column],
}

impl Schema {
    /// Wraps a static column list. Name uniqueness is asserted by
    /// [`Schema::validate`] (called from every renderer in debug builds
    /// and pinned by tests).
    pub const fn new(columns: &'static [Column]) -> Self {
        Self { columns }
    }

    /// The columns, in emission order.
    pub fn columns(&self) -> &'static [Column] {
        self.columns
    }

    /// Column names, in emission order (JSON key order).
    pub fn names(&self) -> Vec<&'static str> {
        self.columns.iter().map(|c| c.name).collect()
    }

    /// Column names of the CSV sink (skips JSON-only columns).
    pub fn csv_names(&self) -> Vec<&'static str> {
        self.columns.iter().filter(|c| c.in_csv).map(|c| c.name).collect()
    }

    /// Panics on duplicate column names — a registry bug, caught once at
    /// test time rather than silently shadowing a key in every row.
    pub fn validate(&self) {
        for (i, a) in self.columns.iter().enumerate() {
            for b in &self.columns[..i] {
                assert_ne!(a.name, b.name, "duplicate column name in schema");
            }
        }
    }

    /// The CSV header row matching [`Schema::row_csv`].
    pub fn csv_header(&self) -> String {
        self.csv_names().join(",")
    }

    fn check(&self, values: &[Value]) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row has {} values for {} columns",
            values.len(),
            self.columns.len()
        );
        for (col, val) in self.columns.iter().zip(values) {
            assert!(
                val.matches(col.ty),
                "column {:?} expects {:?}, got {:?}",
                col.name,
                col.ty,
                val
            );
        }
    }

    /// Renders one row as a JSON object (one JSON-lines record).
    ///
    /// # Panics
    ///
    /// Panics when `values` disagrees with the schema in arity or type —
    /// an emitter bug, never a data condition.
    pub fn row_json(&self, values: &[Value]) -> String {
        self.check(values);
        let mut out = String::with_capacity(32 * self.columns.len());
        out.push('{');
        for (i, (col, val)) in self.columns.iter().zip(values).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(col.name);
            out.push_str("\":");
            out.push_str(&val.render_json());
        }
        out.push('}');
        out
    }

    /// Renders one row as a CSV record (no trailing newline), skipping
    /// JSON-only columns.
    ///
    /// # Panics
    ///
    /// Panics on arity/type mismatch, like [`Schema::row_json`].
    pub fn row_csv(&self, values: &[Value]) -> String {
        self.check(values);
        let mut out = String::with_capacity(16 * self.columns.len());
        let mut first = true;
        for (col, val) in self.columns.iter().zip(values) {
            if !col.in_csv {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&val.render_csv());
        }
        out
    }
}

/// JSON-escapes and quotes a string.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float deterministically (shortest round-trip); non-finite
/// values become `null` (JSON has no NaN/Infinity).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Formats an optional float: absent measurements are `null` in both
/// sinks, so the measured columns always exist and parse uniformly.
pub fn fmt_opt_f64(v: Option<f64>) -> String {
    v.map_or_else(|| "null".into(), fmt_f64)
}

/// Formats an optional integer the same way (`freq_khz`: `null` = base
/// frequency).
pub fn fmt_opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |x| x.to_string())
}

/// Quotes a CSV field when it contains a delimiter, quote or newline
/// (RFC 4180); plain fields pass through unquoted, byte-identical to the
/// historical emitters.
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_COLS: &[Column] = &[
        Column::new("name", ColumnType::Str),
        Column::new("n", ColumnType::U64),
        Column::new("x", ColumnType::F64),
        Column::new("ok", ColumnType::Bool),
        Column::new("cap", ColumnType::OptU64),
        Column::new("j", ColumnType::OptF64),
        Column::json_only("model", ColumnType::Str),
    ];
    const TEST_SCHEMA: Schema = Schema::new(TEST_COLS);

    #[test]
    fn row_rendering_matches_hand_rolled_output() {
        let values = [
            Value::Str("kv-zipf"),
            Value::U64(7),
            Value::F64(1.5),
            Value::Bool(true),
            Value::OptU64(None),
            Value::OptF64(Some(2.75)),
            Value::Str("xeon"),
        ];
        assert_eq!(
            TEST_SCHEMA.row_json(&values),
            "{\"name\":\"kv-zipf\",\"n\":7,\"x\":1.5,\"ok\":true,\"cap\":null,\"j\":2.75,\
             \"model\":\"xeon\"}"
        );
        // The JSON-only column is absent from both the CSV header and row.
        assert_eq!(TEST_SCHEMA.csv_header(), "name,n,x,ok,cap,j");
        assert_eq!(TEST_SCHEMA.row_csv(&values), "kv-zipf,7,1.5,true,null,2.75");
    }

    #[test]
    fn float_and_option_rendering() {
        assert_eq!(fmt_f64(0.1 + 0.2), "0.30000000000000004", "shortest round-trip formatting");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_opt_f64(None), "null");
        assert_eq!(fmt_opt_f64(Some(f64::NAN)), "null");
        assert_eq!(fmt_opt_u64(Some(1_200_000)), "1200000");
        assert_eq!(fmt_opt_u64(None), "null");
    }

    #[test]
    fn string_escaping_in_both_sinks() {
        assert_eq!(json_escape("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(csv_field("plain-name"), "plain-name", "plain fields stay unquoted");
        assert_eq!(csv_field("kv,\"hot\""), "\"kv,\"\"hot\"\"\"");
        let row = TEST_SCHEMA.row_csv(&[
            Value::Str("kv,x"),
            Value::U64(0),
            Value::F64(0.0),
            Value::Bool(false),
            Value::OptU64(Some(5)),
            Value::OptF64(None),
            Value::Str("xeon"),
        ]);
        assert!(row.starts_with("\"kv,x\","), "hostile name unescaped: {row}");
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn type_mismatch_panics() {
        TEST_SCHEMA.row_json(&[
            Value::U64(1), // Str column
            Value::U64(1),
            Value::F64(0.0),
            Value::Bool(true),
            Value::OptU64(None),
            Value::OptF64(None),
            Value::Str("xeon"),
        ]);
    }

    #[test]
    #[should_panic(expected = "values for")]
    fn arity_mismatch_panics() {
        TEST_SCHEMA.row_json(&[Value::Str("x")]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_fail_validation() {
        const DUP: &[Column] =
            &[Column::new("a", ColumnType::U64), Column::new("a", ColumnType::U64)];
        Schema::new(DUP).validate();
    }
}
