//! Append-only `(x, y)` series with interval helpers.
//!
//! Figures 5, 7, 8 and 11 of the paper plot *interval DLWA* — the ratio of
//! NAND bytes written to host bytes written over each 10-minute window.
//! Our simulated equivalent is a window of host bytes; the harness appends
//! one point per window and renders the series.

/// A single named series of `(x, y)` points.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    name: String,
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series with the given display name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries { name: name.into(), points: Vec::new() }
    }

    /// The series' display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// All points in insertion order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of the `y` values, or 0.0 if empty.
    pub fn mean_y(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|(_, y)| y).sum::<f64>() / self.points.len() as f64
    }

    /// Maximum `y` value, or 0.0 if empty.
    pub fn max_y(&self) -> f64 {
        self.points.iter().map(|&(_, y)| y).fold(0.0, f64::max)
    }

    /// Renders the series as a compact sparkline-style text plot, used by
    /// bench binaries to visualise interval-DLWA timelines in a terminal.
    pub fn render_ascii(&self, width: usize) -> String {
        if self.points.is_empty() {
            return format!("{}: (empty)", self.name);
        }
        const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let max = self.max_y().max(f64::MIN_POSITIVE);
        let min = self.points.iter().map(|&(_, y)| y).fold(f64::INFINITY, f64::min);
        let span = (max - min).max(f64::MIN_POSITIVE);
        // Downsample to `width` columns by averaging.
        let w = width.clamp(1, self.points.len());
        let mut out = String::new();
        for col in 0..w {
            let lo = col * self.points.len() / w;
            let hi = ((col + 1) * self.points.len() / w).max(lo + 1);
            let avg: f64 =
                self.points[lo..hi].iter().map(|(_, y)| y).sum::<f64>() / (hi - lo) as f64;
            let level = (((avg - min) / span) * (GLYPHS.len() - 1) as f64).round() as usize;
            out.push(GLYPHS[level.min(GLYPHS.len() - 1)]);
        }
        format!("{}: [{out}] min={min:.3} mean={:.3} max={max:.3}", self.name, self.mean_y())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_series_defaults() {
        let s = TimeSeries::new("dlwa");
        assert!(s.is_empty());
        assert_eq!(s.mean_y(), 0.0);
        assert_eq!(s.max_y(), 0.0);
        assert!(s.render_ascii(10).contains("empty"));
    }

    #[test]
    fn mean_and_max() {
        let mut s = TimeSeries::new("x");
        s.push(0.0, 1.0);
        s.push(1.0, 3.0);
        assert_eq!(s.mean_y(), 2.0);
        assert_eq!(s.max_y(), 3.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn ascii_render_has_requested_width() {
        let mut s = TimeSeries::new("ts");
        for i in 0..100 {
            s.push(i as f64, (i % 7) as f64);
        }
        let r = s.render_ascii(20);
        let bar: String = r.chars().skip_while(|&c| c != '[').take_while(|&c| c != ']').collect();
        // 20 glyphs + the leading '['.
        assert_eq!(bar.chars().count(), 21, "render: {r}");
    }

    #[test]
    fn constant_series_renders_without_nan() {
        let mut s = TimeSeries::new("flat");
        for i in 0..10 {
            s.push(i as f64, 1.0);
        }
        let r = s.render_ascii(10);
        assert!(!r.contains("NaN"), "{r}");
    }
}
