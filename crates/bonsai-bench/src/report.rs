//! The zero-dependency HTML reports: one page skeleton with one
//! stylesheet (`page`) and the structural checks every report passes.
//!
//! Every gate that renders an `out/*.html` dashboard promises it is fully
//! self-contained (no scripts, stylesheets, images, or external references
//! — the file must render offline from a plain `file://` open) and carries
//! its required sections. CI byte-compares the reports across thread
//! counts, but a byte-compare only proves *stability*, not *shape*: a
//! report that deterministically renders empty passes it. The
//! [`check_html`] rules plus the per-report markers each row of
//! [`crate::gates::GATES`] lists close that gap; the gate runner applies
//! them to every HTML file a row renders.

/// The one stylesheet of every report.
const STYLE: &str = "\
body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;max-width:72rem;padding:0 1rem;color:#1a1a2e}
h1{font-size:1.4rem} h2{font-size:1.1rem;margin-top:2rem} h3{font-size:1rem}
table{border-collapse:collapse;margin:0.5rem 0 1.5rem;font-size:13px}
td,th{border:1px solid #cbd5e1;padding:4px 10px;text-align:right}
th{background:#eef2f7} td:first-child,th:first-child,td.l,th.l{text-align:left}
code{background:#eef2f7;padding:0 3px;border-radius:3px}
.ok,.neg{color:#16a34a} .bad,.pos{color:#dc2626} .ok,.bad{font-weight:600}
.charts{display:flex;gap:1rem;flex-wrap:wrap}
.t{font:600 13px system-ui;fill:#1a1a2e} .a{font:11px system-ui;fill:#556}
.g{stroke:#e2e8f0} .ideal{stroke:#94a3b8;stroke-dasharray:4 3}
.legend span{display:inline-block;margin-right:1.2rem}
.swatch{display:inline-block;width:10px;height:10px;border-radius:2px;vertical-align:-1px;margin-right:4px}
";

/// A self-contained report page: the HTML5 prologue, `title`, the shared
/// stylesheet, then `body`, which brings its own `<h1>`.
pub(crate) fn page(title: &str, body: &str) -> String {
    format!(
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>{title}</title>\n<style>\n{STYLE}</style>\n</head>\n<body>\n{body}</body>\n</html>\n"
    )
}

/// One report's contract: file name under `out/` and the section markers
/// it must contain.
pub struct ReportSpec {
    /// File name under `out/`; one `*` stands for any run of characters,
    /// so one spec can cover every snapshot of a dashboard.
    pub file: &'static str,
    /// Substrings the report must contain.
    pub markers: &'static [&'static str],
}

/// Check one report's structure. Returns every violated rule (empty =
/// clean): the document must start with an HTML5 doctype, close its
/// `<html>`, and contain no scripts, external stylesheets, images, or
/// schemeful URLs.
pub fn check_html(text: &str) -> Vec<String> {
    let mut violations = Vec::new();
    if !text.starts_with("<!DOCTYPE html>") {
        violations.push("missing <!DOCTYPE html> prologue".to_string());
    }
    if !text.contains("</html>") {
        violations.push("unclosed document (no </html>)".to_string());
    }
    for (needle, rule) in [
        ("<script", "embedded script"),
        ("<link", "external stylesheet reference"),
        ("<img", "image reference"),
        ("<iframe", "embedded frame"),
        ("http://", "external http reference"),
        ("https://", "external https reference"),
    ] {
        if text.contains(needle) {
            violations.push(format!("{rule} (`{needle}`)"));
        }
    }
    violations
}

/// Check one report against its spec: structure plus required markers.
pub fn check_report(spec: &ReportSpec, text: &str) -> Vec<String> {
    let mut violations = check_html(text);
    for marker in spec.markers {
        if !text.contains(marker) {
            violations.push(format!("missing required section marker `{marker}`"));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "<!DOCTYPE html>\n<html><body><h2>X</h2></body></html>\n";

    #[test]
    fn clean_document_passes() {
        assert!(check_html(GOOD).is_empty());
    }

    #[test]
    fn structural_violations_are_reported() {
        assert!(!check_html("<html></html>").is_empty(), "no doctype");
        assert!(!check_html("<!DOCTYPE html><html>").is_empty(), "unclosed");
        for bad in [
            "<script>alert(1)</script>",
            "<link rel=\"stylesheet\" href=\"x.css\">",
            "<img src=\"x.png\">",
            "<iframe></iframe>",
            "see http://example.com",
            "see https://example.com",
        ] {
            let doc = format!("<!DOCTYPE html>\n<html>{bad}</html>");
            assert!(!check_html(&doc).is_empty(), "{bad} must be rejected");
        }
    }

    #[test]
    fn a_page_is_a_clean_document() {
        let html = page("t", "<h1>T</h1>\n");
        assert!(check_html(&html).is_empty(), "{:?}", check_html(&html));
        assert!(
            html.contains("<title>t</title>") && html.ends_with("<h1>T</h1>\n</body>\n</html>\n")
        );
    }

    #[test]
    fn missing_markers_are_reported() {
        let spec = ReportSpec {
            file: "x.html",
            markers: &["<h2>X</h2>", "<h2>Y</h2>"],
        };
        let v = check_report(&spec, GOOD);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("<h2>Y</h2>"));
    }
}
