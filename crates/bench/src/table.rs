//! Lightweight experiment tables rendered as Markdown (and JSON).

/// One experiment's result table.
#[derive(Clone, Debug)]
pub struct ExperimentTable {
    /// Experiment identifier (e.g. `"E4"`).
    pub(crate) id: String,
    /// Human-readable title.
    pub(crate) title: String,
    /// The paper claim being reproduced.
    pub(crate) claim: String,
    /// Column headers.
    pub(crate) headers: Vec<String>,
    /// Rows (stringified cells).
    pub(crate) rows: Vec<Vec<String>>,
}

impl ExperimentTable {
    /// Creates an empty table.
    pub(crate) fn new(id: &str, title: &str, claim: &str, headers: &[&str]) -> Self {
        Self {
            id: id.to_owned(),
            title: title.to_owned(),
            claim: claim.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub(crate) fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
    }

    /// Renders the table as a JSON object (hand-rolled; the build
    /// environment has no serde).
    pub fn to_json(&self) -> String {
        let headers: Vec<String> = self.headers.iter().map(|h| json_string(h)).collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(|c| json_string(c)).collect();
                format!("[{}]", cells.join(", "))
            })
            .collect();
        format!(
            concat!(
                "{{\n  \"id\": {},\n  \"title\": {},\n  \"claim\": {},\n",
                "  \"headers\": [{}],\n  \"rows\": [{}]\n}}"
            ),
            json_string(&self.id),
            json_string(&self.title),
            json_string(&self.claim),
            headers.join(", "),
            rows.join(", ")
        )
    }

    /// Renders the table as GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        out.push_str(&format!("*Claim:* {}\n\n", self.claim));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}|\n",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out.push('\n');
        out
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

/// Formats a float compactly.
pub(crate) fn fmt_f64(x: f64) -> String {
    if x == 0.0 {
        "0".to_owned()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut t = ExperimentTable::new("E0", "demo", "demo claim", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### E0 — demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn json_rendering_escapes_cells() {
        let mut t = ExperimentTable::new("E0", "demo", "demo claim", &["a", "b"]);
        t.push_row(vec!["say \"hi\"".into(), "back\\slash".into()]);
        t.push_row(vec!["two\nlines".into(), "bell\u{7}".into()]);
        let expected = r#"{
  "id": "E0",
  "title": "demo",
  "claim": "demo claim",
  "headers": ["a", "b"],
  "rows": [["say \"hi\"", "back\\slash"], ["two\nlines", "bell\u0007"]]
}"#;
        assert_eq!(t.to_json(), expected);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = ExperimentTable::new("E0", "demo", "demo claim", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(1234.4), "1234");
        assert_eq!(fmt_f64(12.34), "12.3");
        assert_eq!(fmt_f64(0.1234), "0.123");
    }
}
