//! Minimal dependency-free image/table encoders, so every figure of the paper
//! can be regenerated as an actual artifact from the benches.

/// An "inferno"-like colour map: dark blue/black → purple → orange → yellow.
fn heat_color(v: f64) -> [u8; 3] {
    let v = v.clamp(0.0, 1.0);
    let r = (255.0 * (1.5 * v).min(1.0).powf(0.8)) as u8;
    let g = (255.0 * ((v - 0.25) * 1.6).clamp(0.0, 1.0).powf(1.1)) as u8;
    let b = (255.0 * ((0.3 - (v - 0.15).abs()) * 2.0 + (v - 0.85) * 4.0).clamp(0.0, 1.0)) as u8;
    [r, g, b]
}

/// Encode a row-major brightness grid (`values` in `[0,1]`, `n × n`) as a
/// binary PPM with the heat colour map. Row 0 is rendered at the *bottom*
/// (mathematical orientation).
pub fn heatmap(values: &[f64], n: usize) -> Vec<u8> {
    assert_eq!(values.len(), n * n);
    let mut out = format!("P6\n{n} {n}\n255\n").into_bytes();
    for row in (0..n).rev() {
        for col in 0..n {
            out.extend_from_slice(&heat_color(values[row * n + col]));
        }
    }
    out
}

/// Render `(x, columns…)` series as CSV with a header line.
pub fn csv(header: &str, rows: &[Vec<f64>]) -> String {
    let mut out = format!("{header}\n");
    for row in rows {
        let line: Vec<String> = row.iter().map(|v| format!("{v:.6e}")).collect();
        out.push_str(&line.join(","));
        out.push('\n');
    }
    out
}

/// Render a brightness grid as coarse ASCII art (for terminal output in the
/// benches), `cols` characters wide.
pub fn ascii_art(values: &[f64], n: usize, cols: usize) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let rows = cols / 2; // terminal cells are ~2x taller than wide
    let mut out = String::with_capacity(rows * (cols + 1));
    for r in (0..rows).rev() {
        for c in 0..cols {
            // average the source cells mapping to this character
            let y0 = r * n / rows;
            let y1 = ((r + 1) * n / rows).max(y0 + 1);
            let x0 = c * n / cols;
            let x1 = ((c + 1) * n / cols).max(x0 + 1);
            let mut sum = 0.0;
            let mut cnt = 0.0;
            for y in y0..y1.min(n) {
                for x in x0..x1.min(n) {
                    sum += values[y * n + x];
                    cnt += 1.0;
                }
            }
            let v = if cnt > 0.0 { sum / cnt } else { 0.0 };
            let idx = ((v * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
            out.push(RAMP[idx] as char);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ppm_file_has_correct_header_and_size() {
        let n = 16;
        let vals: Vec<f64> = (0..n * n).map(|i| i as f64 / (n * n) as f64).collect();
        let data = heatmap(&vals, n);
        assert!(data.starts_with(b"P6\n16 16\n255\n"));
        assert_eq!(data.len(), 13 + 3 * n * n);
    }

    #[test]
    fn csv_round_trip_shape() {
        let s = csv("x,y", &[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let lines: Vec<&str> = s.trim().lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "x,y");
        assert!(lines[1].contains(','));
    }

    #[test]
    fn ascii_art_dimensions() {
        let n = 32;
        let vals = vec![0.5; n * n];
        let art = ascii_art(&vals, n, 40);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 20);
        assert!(lines.iter().all(|l| l.len() == 40));
    }

    #[test]
    fn heat_color_endpoints() {
        assert_eq!(heat_color(0.0), [0, 0, 0]);
        let hot = heat_color(1.0);
        assert_eq!(hot[0], 255);
        assert!(hot[1] > 200);
    }
}
