//! The pretty JSON writer of the `BENCH_*.json` records.
//!
//! A record is built as a [`Json`] value and written with
//! [`Json::pretty`]: two-space indent, one value per line, `"key": value`,
//! empty lists and objects as `[]` and `{}`, integers as integers, floats
//! in Rust's shortest round-trip form (`{:?}`, so `2.0`, `1e21`) and
//! strings through [`ipso_obs::escape_json`]. Keys keep the order they
//! were given in. The committed records are read only by CI's Python
//! checks, so there is no reader.

use std::fmt::Write as _;

use ipso_obs::escape_json;

/// A JSON value of a bench record.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A count.
    Int(u64),
    /// A measurement; must be finite.
    Float(f64),
    /// A string.
    Str(String),
    /// A list.
    List(Vec<Json>),
    /// An object, keys in writing order.
    Object(Vec<(&'static str, Json)>),
}

impl Json {
    /// A list of floats.
    pub fn floats(values: &[f64]) -> Json {
        Json::List(values.iter().map(|&v| Json::Float(v)).collect())
    }

    /// The value as indented JSON text, with no trailing newline.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite float, which JSON cannot represent.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (brackets, entries): (&str, Vec<(Option<&str>, &Json)>) = match self {
            Json::Int(v) => return write!(out, "{v}").expect("string write"),
            Json::Float(v) => {
                assert!(v.is_finite(), "bench record float is not finite: {v}");
                return write!(out, "{v:?}").expect("string write");
            }
            Json::Str(s) => return write_str(out, s),
            Json::List(items) => ("[]", items.iter().map(|v| (None, v)).collect()),
            Json::Object(fields) => ("{}", fields.iter().map(|(k, v)| (Some(*k), v)).collect()),
        };
        // Each entry on its own line one level deeper, the closing
        // bracket on a line of its own unless there are none.
        out.push_str(&brackets[..1]);
        for (i, (key, value)) in entries.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            write!(out, "{comma}\n{}", "  ".repeat(depth + 1)).expect("string write");
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        if !entries.is_empty() {
            write!(out, "\n{}", "  ".repeat(depth)).expect("string write");
        }
        out.push_str(&brackets[1..]);
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    escape_json(s, out);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record in the `BENCH_engines.json` shape, pinned to the bytes
    /// the records were written with before this writer replaced the
    /// derive-based one.
    #[test]
    fn pretty_bytes_are_pinned() {
        let bench = |name: &str, config: &str, mean_ns, samples_ns: &[f64], iters| {
            Json::Object(vec![
                ("name", Json::Str(name.into())),
                ("config", Json::Str(config.into())),
                ("mean_ns", Json::Float(mean_ns)),
                ("samples_ns", Json::floats(samples_ns)),
                ("iters", Json::Int(iters)),
            ])
        };
        let report = Json::Object(vec![
            ("schema", Json::Str("ipso-bench-engines/v2".into())),
            ("map_tasks", Json::Int(8)),
            ("host_threads", Json::Int(2)),
            (
                "benches",
                Json::List(vec![
                    bench(
                        "mapreduce_sort_n8_btree_seq",
                        "btree_seq",
                        1596411.503448276,
                        &[1.5, 0.1 + 0.2, 1e21],
                        870,
                    ),
                    bench("empty \"q\"", "x", 2.0, &[], 0),
                ]),
            ),
            ("speedups", Json::List(vec![])),
        ]);
        let expected = r#"{
  "schema": "ipso-bench-engines/v2",
  "map_tasks": 8,
  "host_threads": 2,
  "benches": [
    {
      "name": "mapreduce_sort_n8_btree_seq",
      "config": "btree_seq",
      "mean_ns": 1596411.503448276,
      "samples_ns": [
        1.5,
        0.30000000000000004,
        1e21
      ],
      "iters": 870
    },
    {
      "name": "empty \"q\"",
      "config": "x",
      "mean_ns": 2.0,
      "samples_ns": [],
      "iters": 0
    }
  ],
  "speedups": []
}"#;
        assert_eq!(report.pretty(), expected);
    }

    #[test]
    fn empty_object_and_scalars() {
        assert_eq!(Json::Object(vec![]).pretty(), "{}");
        assert_eq!(Json::Float(4.0).pretty(), "4.0");
        assert_eq!(Json::Str("a\tb".into()).pretty(), r#""a\tb""#);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_float_panics() {
        Json::Float(f64::INFINITY).pretty();
    }
}
