//! Sweep results as paper-style text tables.
//!
//! Every experiment runner produces a [`Series`]: named columns over a
//! swept x-axis, rendered as an aligned text table (the repository's
//! equivalent of the paper's figures).

/// One row of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// The x value (send rate, packet size, memory %, …).
    pub x: f64,
    /// One value per column.
    pub values: Vec<f64>,
}

/// A complete sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    title: String,
    x_label: String,
    columns: Vec<String>,
    points: Vec<SeriesPoint>,
}

impl Series {
    /// Creates an empty series with the given column names.
    pub fn new(title: impl Into<String>, x_label: impl Into<String>, columns: Vec<String>) -> Self {
        Series { title: title.into(), x_label: x_label.into(), columns, points: Vec::new() }
    }

    /// Appends a row; the value count must match the column count.
    pub fn push(&mut self, x: f64, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.points.push(SeriesPoint { x, values });
    }

    /// The rows.
    pub fn points(&self) -> &[SeriesPoint] {
        &self.points
    }

    /// The column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The series title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Looks up a column index by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// The values of one column across the sweep.
    pub fn column(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.column_index(name)?;
        Some(self.points.iter().map(|p| p.values[idx]).collect())
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        let mut header = format!("{:>14}", self.x_label);
        for c in &self.columns {
            header.push_str(&format!(" {c:>18}"));
        }
        out.push_str(&header);
        out.push('\n');
        out.push_str(&"-".repeat(header.len()));
        out.push('\n');
        for p in &self.points {
            out.push_str(&format!("{:>14.3}", p.x));
            for v in &p.values {
                out.push_str(&format!(" {v:>18.4}"));
            }
            out.push('\n');
        }
        out
    }

    /// Renders the series as a JSON object (title, x label, columns, and
    /// one `[x, v0, v1, …]` row per point) — the machine-readable twin of
    /// [`Series::render`], used by `pp-exp` subcommands that feed
    /// dashboards rather than eyes.
    pub fn render_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".into()
            }
        }
        let columns: Vec<String> = self.columns.iter().map(|c| format!("\"{}\"", esc(c))).collect();
        let rows: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                let mut cells = vec![num(p.x)];
                cells.extend(p.values.iter().map(|&v| num(v)));
                format!("    [{}]", cells.join(", "))
            })
            .collect();
        format!(
            "{{\n  \"title\": \"{}\",\n  \"x_label\": \"{}\",\n  \"columns\": [{}],\n  \"points\": [\n{}\n  ]\n}}",
            esc(&self.title),
            esc(&self.x_label),
            columns.join(", "),
            rows.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Series {
        let mut s = Series::new(
            "Fig 7: goodput vs send rate",
            "send_gbps",
            vec!["baseline".into(), "payloadpark".into()],
        );
        s.push(2.0, vec![0.095, 0.095]);
        s.push(10.0, vec![0.476, 0.476]);
        s.push(12.0, vec![0.476, 0.55]);
        s
    }

    #[test]
    fn accessors() {
        let s = sample();
        assert_eq!(s.title(), "Fig 7: goodput vs send rate");
        assert_eq!(s.points().len(), 3);
        assert_eq!(s.column_index("payloadpark"), Some(1));
        assert_eq!(s.column_index("nope"), None);
        assert_eq!(s.column("baseline").unwrap(), vec![0.095, 0.476, 0.476]);
        assert!(s.column("nope").is_none());
    }

    #[test]
    fn render_contains_rows_and_headers() {
        let text = sample().render();
        assert!(text.contains("send_gbps"));
        assert!(text.contains("baseline"));
        assert!(text.contains("payloadpark"));
        assert!(text.contains("12.000"));
        assert!(text.contains("0.5500"));
    }

    #[test]
    fn render_json_is_parseable_shape() {
        let json = sample().render_json();
        assert!(json.contains("\"title\": \"Fig 7: goodput vs send rate\""));
        assert!(json.contains("\"x_label\": \"send_gbps\""));
        assert!(json.contains("\"baseline\", \"payloadpark\""));
        assert!(json.contains("[2, 0.095, 0.095]"));
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = json.matches('[').count() + json.matches('{').count();
        let closes = json.matches(']').count() + json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn render_json_escapes_and_handles_non_finite() {
        let mut s = Series::new("say \"hi\"", "x", vec!["v".into()]);
        s.push(1.0, vec![f64::NAN]);
        let json = s.render_json();
        assert!(json.contains("say \\\"hi\\\""));
        assert!(json.contains("[1, null]"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_panics() {
        sample().push(1.0, vec![1.0]);
    }
}
