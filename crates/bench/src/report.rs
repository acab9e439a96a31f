//! Plain-text and JSON reporting helpers for the `repro` harness.
//!
//! Every figure is emitted as a small table: one row per thread count, one
//! column per lock variant / strategy, mirroring the series of the original
//! plot so the shape (who wins, by how much, where the crossover happens) can
//! be compared directly against the paper.

/// A generic result table: `columns` are the series names (lock variants or
/// strategies) and each row holds the x value (thread count) plus one metric
/// per column.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (e.g. "Figure 3(a): ArrBench, full range, 100% reads").
    pub title: String,
    /// Name of the x axis (usually "threads").
    pub x_label: String,
    /// Metric name (e.g. "ops/sec", "runtime (ms)").
    pub metric: String,
    /// Series names, in column order.
    pub columns: Vec<String>,
    /// Rows: x value plus one metric value per column.
    pub rows: Vec<TableRow>,
    /// Text printed under the rendered table (a summary of the rows);
    /// left out of the JSON.
    pub note: String,
}

/// One row of a [`Table`].
#[derive(Debug, Clone)]
pub struct TableRow {
    /// X value (thread count).
    pub x: u64,
    /// One value per column, in the same order as `Table::columns`.
    pub values: Vec<f64>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        metric: impl Into<String>,
        columns: Vec<String>,
    ) -> Self {
        Table {
            title: title.into(),
            x_label: x_label.into(),
            metric: metric.into(),
            columns,
            rows: Vec::new(),
            note: String::new(),
        }
    }

    /// Appends one row.
    pub fn push_row(&mut self, x: u64, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match the column count"
        );
        self.rows.push(TableRow { x, values });
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}  [{}]\n", self.title, self.metric));
        let mut header = format!("{:>10}", self.x_label);
        for col in &self.columns {
            header.push_str(&format!("  {col:>14}"));
        }
        out.push_str(&header);
        out.push('\n');
        for row in &self.rows {
            let mut line = format!("{:>10}", row.x);
            for value in &row.values {
                if *value >= 1000.0 {
                    line.push_str(&format!("  {value:>14.0}"));
                } else {
                    line.push_str(&format!("  {value:>14.3}"));
                }
            }
            out.push_str(&line);
            out.push('\n');
        }
        if !self.note.is_empty() {
            out.push('\n');
            out.push_str(&self.note);
        }
        out
    }

    /// Serializes the table as pretty-printed JSON.
    ///
    /// Hand-rolled (the build is fully offline, so `serde`/`serde_json` are
    /// unavailable); the output matches what `#[derive(Serialize)]` would
    /// have produced for this struct, field for field.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"title\": {},\n", json_string(&self.title)));
        out.push_str(&format!("  \"x_label\": {},\n", json_string(&self.x_label)));
        out.push_str(&format!("  \"metric\": {},\n", json_string(&self.metric)));
        out.push_str("  \"columns\": [");
        for (i, col) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(col));
        }
        out.push_str("],\n  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {{ \"x\": {}, \"values\": [", row.x));
            for (j, value) in row.values.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_number(*value));
            }
            out.push_str("] }");
        }
        if !self.rows.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }

    /// For a given row, the ratio between the best and worst column — a quick
    /// "who wins by how much" summary.
    pub fn spread_at(&self, x: u64) -> Option<f64> {
        let row = self.rows.iter().find(|r| r.x == x)?;
        let max = row.values.iter().copied().fold(f64::MIN, f64::max);
        let min = row.values.iter().copied().fold(f64::MAX, f64::min);
        if min <= 0.0 {
            None
        } else {
            Some(max / min)
        }
    }
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Formats an `f64` as a JSON number (JSON has no NaN/Infinity; clamp to
/// null like serde_json does for non-finite floats).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        // Keep integers clean ("200.0" not "200.00000...") while preserving
        // fractional values.
        if value == value.trunc() && value.abs() < 1e15 {
            format!("{value:.1}")
        } else {
            format!("{value}")
        }
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal recursive-descent JSON validator: returns the rest of the
    /// input after one complete value, or `None` on malformed input. Keeps
    /// the hand-rolled serializer honest without a JSON dependency.
    fn skip_value(s: &str) -> Option<&str> {
        let s = s.trim_start();
        let mut chars = s.char_indices();
        match chars.next()?.1 {
            '{' => skip_seq(&s[1..], '}', |s| {
                let s = skip_string(s.trim_start())?.trim_start();
                skip_value(s.strip_prefix(':')?)
            }),
            '[' => skip_seq(&s[1..], ']', skip_value),
            '"' => skip_string(s),
            _ => {
                let end = s
                    .find(|c: char| ",]}".contains(c) || c.is_whitespace())
                    .unwrap_or(s.len());
                let tok = &s[..end];
                (tok.parse::<f64>().is_ok() || ["true", "false", "null"].contains(&tok))
                    .then(|| &s[end..])
            }
        }
    }

    /// Consumes `item`s separated by commas until `close`.
    fn skip_seq<'a>(
        mut s: &'a str,
        close: char,
        item: impl Fn(&'a str) -> Option<&'a str>,
    ) -> Option<&'a str> {
        if let Some(rest) = s.trim_start().strip_prefix(close) {
            return Some(rest);
        }
        loop {
            s = item(s)?.trim_start();
            if let Some(rest) = s.strip_prefix(close) {
                return Some(rest);
            }
            s = s.strip_prefix(',')?;
        }
    }

    fn skip_string(s: &str) -> Option<&str> {
        let mut rest = s.strip_prefix('"')?;
        loop {
            let quote = rest.find('"')?;
            let backslashes = rest[..quote]
                .chars()
                .rev()
                .take_while(|&c| c == '\\')
                .count();
            if backslashes % 2 == 0 {
                return Some(&rest[quote + 1..]);
            }
            rest = &rest[quote + 1..];
        }
    }

    fn assert_valid_json(s: &str) {
        let rest = skip_value(s).unwrap_or_else(|| panic!("malformed JSON: {s}"));
        assert!(
            rest.trim().is_empty(),
            "trailing garbage after JSON: {rest}"
        );
    }

    fn sample() -> Table {
        let mut t = Table::new(
            "Figure X",
            "threads",
            "ops/sec",
            vec!["a".into(), "b".into()],
        );
        t.push_row(1, vec![100.0, 200.0]);
        t.push_row(2, vec![150.0, 4000.0]);
        t
    }

    #[test]
    fn render_contains_all_cells() {
        let text = sample().render();
        assert!(text.contains("Figure X"));
        assert!(text.contains("threads"));
        assert!(text.contains("4000"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn note_renders_under_the_table_but_not_into_json() {
        let mut t = sample();
        t.note = "  a wins 2x".into();
        assert!(t.render().ends_with("\n\n  a wins 2x"));
        assert!(!t.to_json().contains("wins"));
    }

    #[test]
    fn json_contains_fields_and_escapes() {
        let json = sample().to_json();
        assert_valid_json(&json);
        assert!(json.contains("\"title\": \"Figure X\""));
        assert!(json.contains("\"columns\": [\"a\", \"b\"]"));
        assert!(json.contains("\"x\": 2"));
        assert!(json.contains("4000.0"));
        let mut quoted = sample();
        quoted.title = "say \"hi\"\n".into();
        let json = quoted.to_json();
        assert_valid_json(&json);
        assert!(json.contains("say \\\"hi\\\"\\n"));
    }

    #[test]
    fn json_structure_holds_for_edge_tables() {
        // Empty table (no rows, no columns).
        assert_valid_json(&Table::new("t", "x", "m", vec![]).to_json());
        // Non-finite metric values serialize as null, still valid JSON.
        let mut t = Table::new("t", "x", "m", vec!["a".into()]);
        t.push_row(1, vec![f64::NAN]);
        t.push_row(2, vec![f64::NEG_INFINITY]);
        let json = t.to_json();
        assert_valid_json(&json);
        assert!(json.contains("null"));
        // The validator itself rejects malformed input.
        assert!(skip_value("{\"a\": [1, }").is_none());
        assert!(skip_value("{\"a\" 1}").is_none());
    }

    #[test]
    fn json_numbers_stay_valid() {
        assert_eq!(json_number(200.0), "200.0");
        assert_eq!(json_number(0.125), "0.125");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }

    #[test]
    fn spread_reports_ratio() {
        let t = sample();
        assert!((t.spread_at(1).unwrap() - 2.0).abs() < 1e-9);
        assert!(t.spread_at(99).is_none());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_is_rejected() {
        let mut t = sample();
        t.push_row(3, vec![1.0]);
    }
}
