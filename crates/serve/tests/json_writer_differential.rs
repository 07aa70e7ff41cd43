//! Differential test of the streaming JSON writer: the bytes
//! `serde_json::to_string` / `to_string_pretty` write for a wire request, a
//! wire response, solver statistics and a designed-mechanism snapshot must
//! equal the bytes of rendering the same value as a `Value` tree with the
//! reference renderer below, which is the tree renderer the writer replaced
//! (with `-0.0` written as `-0`).
//!
//! Each case builds a random tree in a type's documented JSON shape — field
//! names and order written out here, independently of the derive — reads it
//! into the type, and writes the type back.  Strings draw on quotes,
//! backslashes, control characters and non-ASCII text; numbers on ±0,
//! subnormals, values either side of 1e15 and `f64::MAX`; vectors may be
//! empty.

use cpm_core::prelude::*;
use cpm_serve::{WireRequest, WireResponse};
use cpm_simplex::SolveStats;
use proptest::prelude::*;
use serde::{Deserialize, Value};

// ---------------------------------------------------------------------------
// The reference renderer.
// ---------------------------------------------------------------------------

fn render(value: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => {
            assert!(n.is_finite(), "the cases hold finite numbers only");
            out.push_str(&format_number(*n));
        }
        Value::String(s) => render_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                render(item, out, indent, depth + 1);
            }
            if !items.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (key, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                render_string(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                render(item, out, indent, depth + 1);
            }
            if !pairs.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push('}');
        }
    }
}

fn format_number(n: f64) -> String {
    if n == 0.0 && n.is_sign_negative() {
        "-0".to_string()
    } else if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Random trees.
// ---------------------------------------------------------------------------

const ALPHABET: [char; 14] = [
    'a', 'Z', '0', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '€', '𝄞',
];

const NUMBERS: [f64; 16] = [
    0.0,
    -0.0,
    1.0,
    -7.0,
    0.25,
    1.0 / 3.0,
    f64::MIN_POSITIVE,
    f64::MIN_POSITIVE / 4.0, // subnormal
    -5e-324,
    999_999_999_999_999.0,
    1e15,
    -1_000_000_000_000_002.0,
    1e-15,
    9_007_199_254_740_993.0,
    f64::MAX,
    f64::MIN,
];

/// Counts as the wire carries them: through `f64`, exact below 2^53.
const COUNTS: [u64; 8] = [
    0,
    1,
    7,
    4_294_967_296,
    999_999_999_999_999,
    1_000_000_000_000_000,
    1_000_000_000_000_001,
    1 << 53,
];

/// One case's raw draws; the builders below read them in order, wrapping.
#[derive(Debug)]
struct Draws {
    texts: Vec<String>,
    numbers: Vec<f64>,
    counts: Vec<u64>,
    lens: Vec<usize>,
    at: [usize; 4],
}

impl Draws {
    fn new(texts: &[Vec<usize>], numbers: &[usize], counts: &[usize], lens: &[usize]) -> Self {
        Draws {
            texts: texts
                .iter()
                .map(|chars| chars.iter().map(|&c| ALPHABET[c]).collect())
                .collect(),
            numbers: numbers.iter().map(|&i| NUMBERS[i]).collect(),
            counts: counts.iter().map(|&i| COUNTS[i]).collect(),
            lens: lens.to_vec(),
            at: [0; 4],
        }
    }

    fn next<T: Clone>(items: &[T], at: &mut usize, empty: T) -> T {
        let item = items
            .get(*at % items.len().max(1))
            .cloned()
            .unwrap_or(empty);
        *at += 1;
        item
    }

    fn text(&mut self) -> Value {
        Value::String(Self::next(&self.texts, &mut self.at[0], String::new()))
    }

    fn number(&mut self) -> Value {
        Value::Number(Self::next(&self.numbers, &mut self.at[1], 0.5))
    }

    fn count(&mut self) -> Value {
        Value::Number(Self::next(&self.counts, &mut self.at[2], 3) as f64)
    }

    fn len(&mut self) -> usize {
        Self::next(&self.lens, &mut self.at[3], 0)
    }

    fn numbers(&mut self) -> Value {
        let len = self.len();
        Value::Array((0..len).map(|_| self.number()).collect())
    }

    fn counts(&mut self) -> Value {
        let len = self.len();
        Value::Array((0..len).map(|_| self.count()).collect())
    }
}

fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(
        pairs
            .into_iter()
            .map(|(name, value)| (name.to_string(), value))
            .collect(),
    )
}

fn request_tree(d: &mut Draws) -> Value {
    object(vec![
        ("op", d.text()),
        ("n", d.count()),
        ("alpha", d.number()),
        ("properties", d.text()),
        ("objective", d.text()),
        ("inputs", d.counts()),
        ("reports", d.counts()),
    ])
}

fn response_tree(d: &mut Draws) -> Value {
    let ok = Value::Bool(d.len().is_multiple_of(2));
    object(vec![
        ("ok", ok),
        ("error", d.text()),
        ("outputs", d.counts()),
        ("cache_hits", d.count()),
        ("cache_misses", d.count()),
        ("design_solves", d.count()),
        ("entries", d.count()),
        ("design_micros", d.count()),
        ("sample_micros", d.count()),
        ("metrics", d.text()),
        ("ingested", d.count()),
        ("rejected", d.count()),
        ("reports", d.count()),
        ("estimates", d.numbers()),
        ("variances", d.numbers()),
    ])
}

fn stats_tree(d: &mut Draws) -> Value {
    let warm_started = Value::Bool(!d.len().is_multiple_of(2));
    let form = if d.len().is_multiple_of(2) {
        "Primal"
    } else {
        "Dual"
    };
    object(vec![
        ("phase1_iterations", d.count()),
        ("phase2_iterations", d.count()),
        ("degenerate_pivots", d.count()),
        ("bland_activations", d.count()),
        ("artificial_variables", d.count()),
        ("refactorizations", d.count()),
        ("basis_updates", d.count()),
        ("basis_repairs", d.count()),
        ("steepest_edge_resets", d.count()),
        ("factor_bytes", d.count()),
        ("dual_iterations", d.count()),
        ("warm_started", warm_started),
        ("form", Value::String(form.to_string())),
    ])
}

/// A snapshot of a design: a valid spec and column-stochastic matrix (so it
/// reads back), holding the case's drawn numbers where they are allowed.
fn snapshot_tree(d: &mut Draws) -> Value {
    let n = 1 + d.len() % 4;
    let mut properties = PropertySet::empty();
    for (i, &property) in Property::ALL.iter().enumerate() {
        if !d.len().is_multiple_of(2) && i % 2 == 0 {
            properties = properties.with(property);
        }
    }
    let objective = [
        ObjectiveKey::L0,
        ObjectiveKey::L1,
        ObjectiveKey::L2,
        ObjectiveKey::L0Beyond(1),
    ][d.len() % 4];
    let alpha = [0.9, 1.0, 2.0 / 3.0, 0.123_456_789][d.len() % 4];
    let tolerance = [1e-9, 5e-324, 0.25, 1e15][d.len() % 4];
    // Small entries from the draws, each column topped up to 1 by its last
    // row: -0.0, subnormals and 1e-15 pass the matrix check.
    let dim = n + 1;
    let mut entries = vec![0.0; dim * dim];
    for j in 0..dim {
        let mut sum = 0.0;
        for i in 0..n {
            let Value::Number(x) = d.number() else {
                unreachable!()
            };
            let p = if x.abs() < 0.2 { x } else { 0.125 };
            entries[i * dim + j] = p;
            sum += p;
        }
        entries[n * dim + j] = 1.0 - sum;
    }
    let choice = match d.len() % 3 {
        0 => Value::Null,
        1 => Value::String("Geometric".to_string()),
        _ => Value::String("WeakHonestColumnMonotoneLp".to_string()),
    };
    let solver_stats = if d.len().is_multiple_of(2) {
        Value::Null
    } else {
        stats_tree(d)
    };
    let satisfied = (0..d.len())
        .map(|i| Value::Array(vec![d.text(), Value::Bool(i % 2 == 0)]))
        .collect();
    object(vec![
        (
            "spec",
            object(vec![
                ("n", Value::Number(n as f64)),
                ("alpha", Value::Number(alpha)),
                ("properties", Value::String(properties.to_string())),
                ("objective", Value::String(objective.to_string())),
                ("tolerance", Value::Number(tolerance)),
            ]),
        ),
        ("choice", choice),
        (
            "mechanism",
            object(vec![
                ("n", Value::Number(n as f64)),
                (
                    "entries",
                    Value::Array(entries.into_iter().map(Value::Number).collect()),
                ),
            ]),
        ),
        ("solver_stats", solver_stats),
        (
            "report",
            object(vec![("satisfied", Value::Array(satisfied))]),
        ),
        ("score", d.number()),
        ("design_nanos", d.count()),
    ])
}

/// Read `tree` into `T`, write `T` back through the streaming writer, and
/// compare with the reference render of `tree`, compact and pretty.
fn check<T: Deserialize + serde::Serialize>(name: &str, tree: &Value) -> Result<(), String> {
    let value = T::from_value(tree).map_err(|e| format!("{name} does not read back: {e}"))?;
    for indent in [None, Some(2)] {
        let mut expected = String::new();
        render(tree, &mut expected, indent, 0);
        let written = match indent {
            None => serde_json::to_string(&value),
            Some(_) => serde_json::to_string_pretty(&value),
        }
        .map_err(|e| e.to_string())?;
        prop_assert_eq!(written, expected);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn streamed_json_matches_the_value_tree_render(
        texts in proptest::collection::vec(proptest::collection::vec(0usize..ALPHABET.len(), 0..6), 0..5),
        numbers in proptest::collection::vec(0usize..NUMBERS.len(), 0..24),
        counts in proptest::collection::vec(0usize..COUNTS.len(), 0..12),
        lens in proptest::collection::vec(0usize..5, 0..8),
    ) {
        let mut draws = Draws::new(&texts, &numbers, &counts, &lens);
        check::<WireRequest>("WireRequest", &request_tree(&mut draws))?;
        check::<WireResponse>("WireResponse", &response_tree(&mut draws))?;
        check::<SolveStats>("SolveStats", &stats_tree(&mut draws))?;
        check::<DesignedMechanism>("DesignedMechanism", &snapshot_tree(&mut draws))?;
    }
}
