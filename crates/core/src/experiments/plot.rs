//! Minimal ASCII plotting for the bench binaries' terminal reports.

/// Renders a scatter plot of `(x, y)` points into a `width × height`
/// character grid with axis annotations. Multiple series are drawn with
/// distinct glyphs (`series[i].1` is the glyph).
pub(crate) fn scatter(series: &[(&[(f64, f64)], char)], width: usize, height: usize) -> String {
    let width = width.max(10);
    let height = height.max(5);
    let all: Vec<(f64, f64)> = series.iter().flat_map(|(pts, _)| pts.iter().copied()).collect();
    if all.is_empty() {
        return String::from("(no data)\n");
    }
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &all {
        xmin = xmin.min(x);
        xmax = xmax.max(x);
        ymin = ymin.min(y);
        ymax = ymax.max(y);
    }
    if xmax == xmin {
        xmax = xmin + 1.0;
    }
    if ymax == ymin {
        ymax = ymin + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for &(pts, glyph) in series {
        for &(x, y) in pts {
            let cx = (((x - xmin) / (xmax - xmin)) * (width as f64 - 1.0)).round() as usize;
            let cy = (((y - ymin) / (ymax - ymin)) * (height as f64 - 1.0)).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = glyph;
        }
    }
    let mut out = String::new();
    out.push_str(&format!("{ymax:>12.2} ┐\n"));
    for row in grid {
        out.push_str("             │");
        out.extend(row);
        out.push('\n');
    }
    out.push_str(&format!("{ymin:>12.2} └{}\n", "─".repeat(width)));
    out.push_str(&format!("{:>14}{:>width$.0}\n", format!("{xmin:.0}"), xmax, width = width));
    out
}

/// Renders one series as a log-x scatter (sizes span decades).
pub(crate) fn scatter_logx(
    series: &[(&[(f64, f64)], char)],
    width: usize,
    height: usize,
) -> String {
    let logged: Vec<(Vec<(f64, f64)>, char)> = series
        .iter()
        .map(|&(pts, g)| {
            (pts.iter().filter(|&&(x, _)| x > 0.0).map(|&(x, y)| (x.log10(), y)).collect(), g)
        })
        .collect();
    let views: Vec<(&[(f64, f64)], char)> =
        logged.iter().map(|(v, g)| (v.as_slice(), *g)).collect();
    scatter(&views, width, height)
}

/// Formats a CSV from a header and rows of stringly data.
pub fn csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = header.join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_renders_extremes() {
        let pts = [(0.0, 0.0), (10.0, 100.0)];
        let s = scatter(&[(&pts, '*')], 20, 8);
        assert!(s.contains('*'));
        assert!(s.contains("100.00"));
        assert!(s.contains("0.00"));
    }

    #[test]
    fn scatter_handles_empty_and_degenerate() {
        assert!(scatter(&[], 20, 8).contains("no data"));
        let pts = [(1.0, 5.0)];
        let s = scatter(&[(&pts, 'x')], 20, 8);
        assert!(s.contains('x'));
    }

    #[test]
    fn logx_drops_nonpositive() {
        let pts = [(0.0, 1.0), (10.0, 2.0), (100.0, 3.0)];
        let s = scatter_logx(&[(&pts, 'o')], 30, 6);
        assert!(s.contains('o'));
    }

    #[test]
    fn csv_shapes() {
        let rows = vec![vec!["1".to_string(), "2".to_string()]];
        assert_eq!(csv(&["a", "b"], &rows), "a,b\n1,2\n");
    }
}
