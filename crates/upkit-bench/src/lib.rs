//! Shared reporting helpers for the experiment binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it and prints the paper's number next to
//! the reproduced one. These helpers keep the output format uniform so
//! `EXPERIMENTS.md` can quote it directly.

#![warn(missing_docs)]

use std::fmt::Debug;

use upkit_sim::explore::{repro_command, Case, CaseClass, Exploration, Shrunk};
use upkit_sim::failure::mode_from_label;
use upkit_sim::WorldConfig;

/// Prints a table with a title, header row, and aligned columns.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|s| (*s).to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Formats a paper-vs-measured pair with the relative deviation.
#[must_use]
pub fn compare(paper: f64, measured: f64) -> String {
    if paper == 0.0 {
        return format!("{measured:.1}");
    }
    let pct = (measured - paper) / paper * 100.0;
    format!("{measured:.1} ({pct:+.1}%)")
}

/// Formats seconds from microseconds.
#[must_use]
pub fn secs(micros: u64) -> f64 {
    micros as f64 / 1e6
}

/// Formats a byte count with a thousands separator.
#[must_use]
pub fn bytes(n: u32) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// A minimal JSON value for the machine-readable `BENCH_*.json` artifacts
/// the perf benches emit (no external serialization dependency).
#[derive(Clone, Debug)]
pub enum Json {
    /// A float, rendered with three decimals.
    Num(f64),
    /// An integer.
    Int(u64),
    /// A boolean.
    Bool(bool),
    /// A string (escaped on render).
    Str(String),
    /// An ordered object.
    Obj(Vec<(String, Json)>),
    /// An array.
    Arr(Vec<Json>),
    /// A null (parsed from foreign files; the benches never emit it).
    Null,
}

impl Json {
    /// Convenience constructor for object fields.
    #[must_use]
    pub fn obj(fields: Vec<(&str, Json)>) -> Self {
        Self::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders the value as pretty-printed JSON (2-space indent).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    /// Field lookup on an object (`None` on other variants or a missing
    /// key).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view: `Num`, `Int`, and `Bool` (as 0/1) coerce, everything
    /// else is `None`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(v) => Some(*v),
            Self::Int(v) => Some(*v as f64),
            Self::Bool(v) => Some(f64::from(u8::from(*v))),
            _ => None,
        }
    }

    /// Parses a JSON document (the counterpart of [`Json::render`]).
    ///
    /// Supports the full JSON grammar the benches emit plus `null`; numbers
    /// parse as [`Json::Int`] when they are non-negative integers without
    /// exponent/fraction, [`Json::Num`] otherwise.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing data at byte {}", parser.pos));
        }
        Ok(value)
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close_pad = "  ".repeat(indent);
        match self {
            Self::Null => out.push_str("null"),
            Self::Num(v) => out.push_str(&format!("{v:.3}")),
            Self::Int(v) => out.push_str(&v.to_string()),
            Self::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Self::Str(v) => {
                out.push('"');
                for c in v.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Self::Obj(fields) => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&format!("\"{key}\": "));
                    value.render_into(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close_pad);
                out.push('}');
            }
            Self::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.render_into(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close_pad);
                out.push(']');
            }
        }
    }
}

/// Recursive-descent state for [`Json::parse`].
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, want: u8) -> Result<(), String> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", want as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or(format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogate pairs don't occur in bench output;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid utf8")?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "invalid utf8")?;
        if !text.contains(['.', 'e', 'E', '-']) {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

/// The `metrics` section every `BENCH_*.json` carries: a flat object of
/// the [`upkit_trace`] counter registry, deterministic for deterministic
/// benches and therefore pinned byte for byte by the committed smoke
/// baselines.
#[must_use]
pub fn metrics_json(snapshot: &upkit_trace::CountersSnapshot) -> Json {
    Json::Obj(
        snapshot
            .fields()
            .into_iter()
            .map(|(name, value)| (name, Json::Int(value)))
            .collect(),
    )
}

/// Parses the words after an explorer's `--repro` — `<mode> <seed>
/// <firmware_size> <slot_size> <class> <index>`, the shape
/// [`repro_command`] emits — into the scenario and the case they name.
///
/// # Errors
///
/// The explorer's usage line, when the words are malformed.
pub fn parse_repro<K: CaseClass>(args: &[String]) -> Result<(WorldConfig, K, u64), String> {
    let usage = format!(
        "usage: {} --repro <mode> <seed> <firmware_size> <slot_size> {}",
        K::EXPLORER,
        K::CASE_WORDS
    );
    let [mode, seed, firmware_size, slot_size, class, index] = args else {
        return Err(usage);
    };
    match (
        mode_from_label(mode),
        seed.parse(),
        firmware_size.parse(),
        slot_size.parse(),
        K::from_label(class),
        index.parse(),
    ) {
        (Some(mode), Ok(seed), Ok(firmware_size), Ok(slot_size), Some(class), Ok(index)) => Ok((
            WorldConfig {
                seed,
                firmware_size,
                slot_size,
                mode,
            },
            class,
            index,
        )),
        _ => Err(usage),
    }
}

/// Replays the one case the words after `--repro` name, with `run`, and
/// prints it. Returns the exit code: 0 when the invariant held, 1 when it
/// broke, and 2 when the words are malformed (after printing the usage
/// line on stderr).
pub fn repro<C: Case + Debug>(
    args: &[String],
    run: impl FnOnce(&WorldConfig, C::Class, u64) -> C,
) -> i32 {
    match parse_repro::<C::Class>(args) {
        Ok((scenario, class, index)) => {
            let case = run(&scenario, class, index);
            println!("{case:#?}");
            i32::from(case.violation().is_some())
        }
        Err(usage) => {
            eprintln!("{usage}");
            2
        }
    }
}

/// The counterexample lines of one exploration: the shrunk violation with
/// its reproducer, then the reproducer of every violation found; none
/// when nothing was shrunk. `prefix` heads the first line, and `name`
/// names a `(class, index)` case the way the explorer's report does.
pub fn counterexamples<C: Case>(
    prefix: &str,
    exploration: &Exploration<C>,
    shrunk: Option<Shrunk<C>>,
    name: impl Fn(C::Class, u64) -> String,
) -> Vec<String> {
    let Some(shrunk) = shrunk else {
        return Vec::new();
    };
    let (class, index) = shrunk.case.key();
    let mut lines = vec![format!(
        "{prefix}{} — {}\n  reproduce: {}",
        name(class, index),
        shrunk.case.violation().unwrap_or("violation"),
        shrunk.command
    )];
    lines.extend(exploration.violations().into_iter().map(|case| {
        let (class, index) = case.key();
        format!(
            "  also at {}: {}",
            name(class, index),
            repro_command(&exploration.scenario, class, index)
        )
    }));
    lines
}

/// Ends an exploration run that found counterexamples: writes `lines` to
/// `file`, prints them on stderr under `heading`, and exits 1. Returns
/// when `lines` is empty.
pub fn exit_on_counterexamples(file: &str, heading: &str, lines: &[String]) {
    if lines.is_empty() {
        return;
    }
    let body = lines.join("\n") + "\n";
    std::fs::write(file, &body).unwrap_or_else(|err| panic!("write {file}: {err}"));
    eprintln!("\n{heading}:\n{body}");
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_nested_objects() {
        let json = Json::obj(vec![
            ("bench", Json::Str("gen".into())),
            ("ok", Json::Bool(true)),
            ("wall_ms", Json::obj(vec![("seq", Json::Num(1.5))])),
            ("counts", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
        ]);
        let rendered = json.render();
        assert!(rendered.contains("\"bench\": \"gen\""));
        assert!(rendered.contains("\"seq\": 1.500"));
        assert!(rendered.contains("\"counts\": [\n"));
        assert!(rendered.ends_with("}\n"));
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(
            Json::Str("a\"b\\c\nd".into()).render(),
            "\"a\\\"b\\\\c\\nd\"\n"
        );
    }

    #[test]
    fn json_parse_round_trips_render() {
        let json = Json::obj(vec![
            ("bench", Json::Str("loss\n\"sweep\"".into())),
            ("smoke", Json::Bool(true)),
            ("nothing", Json::Null),
            (
                "metrics",
                Json::obj(vec![
                    ("link_bytes_to_device", Json::Int(123_456)),
                    ("ratio", Json::Num(-1.5)),
                ]),
            ),
            ("rounds", Json::Arr(vec![Json::Int(3), Json::Int(9)])),
        ]);
        let parsed = Json::parse(&json.render()).expect("round trip");
        assert_eq!(parsed.render(), json.render());
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("link_bytes_to_device"))
                .and_then(Json::as_f64),
            Some(123_456.0)
        );
    }

    #[test]
    fn json_parse_rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn metrics_json_exposes_counter_fields() {
        let counters = upkit_trace::Counters::default();
        upkit_trace::Counters::add(&counters.link_bytes_to_device, 42);
        let json = metrics_json(&counters.snapshot());
        assert_eq!(
            json.get("link_bytes_to_device").and_then(Json::as_f64),
            Some(42.0)
        );
        assert_eq!(
            json.get("flash_erases_slot0").and_then(Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn compare_reports_deviation() {
        assert_eq!(compare(100.0, 110.0), "110.0 (+10.0%)");
        assert_eq!(compare(0.0, 5.0), "5.0");
    }

    #[test]
    fn bytes_groups_thousands() {
        assert_eq!(bytes(0), "0");
        assert_eq!(bytes(999), "999");
        assert_eq!(bytes(1000), "1,000");
        assert_eq!(bytes(218_472), "218,472");
    }

    #[test]
    fn secs_converts() {
        assert!((secs(61_500_000) - 61.5).abs() < 1e-9);
    }
}
