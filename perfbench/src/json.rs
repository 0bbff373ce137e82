//! The result line, written by hand: the build is offline, so there is no
//! serde.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// The one-line JSON object the benchmark prints last:
/// `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}`.
/// Values keep every digit (`f64` `Display` is the shortest exact
/// round-trip form); a non-finite value, which JSON cannot hold, is written
/// as `null`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(m.name),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_line(
            true,
            90,
            0,
            &[
                Metric::new("latency_ms", 1.2034, "ms"),
                Metric::new("setup_s", 0.1, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 90, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.1, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn values_keep_every_digit_and_non_finite_is_null() {
        let line = result_line(false, 1, 1, &[Metric::new("x", 0.1 + 0.2, "s")]);
        assert!(line.contains("\"value\": 0.30000000000000004"), "{line}");
        assert!(line.starts_with("{\"correct\": false"));
        let line = result_line(true, 1, 0, &[Metric::new("x", f64::NAN, "s")]);
        assert!(line.contains("\"value\": null"), "{line}");
        let line = result_line(true, 1, 0, &[Metric::new("x", 3.0, "s")]);
        assert!(line.contains("\"value\": 3,"), "{line}");
    }

    #[test]
    fn quote_escapes() {
        assert_eq!(quote("a\"b\\c\n\u{1}"), "\"a\\\"b\\\\c\\n\\u0001\"");
    }
}
