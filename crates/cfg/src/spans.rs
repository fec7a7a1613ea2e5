//! Point queries over a set of half-open address spans.

/// A set of half-open spans `[start, end)` indexed for "does any span
/// contain `addr`?": the spans sorted by start, each paired with the
/// furthest end among it and its predecessors. The spans that can
/// contain `addr` are exactly those starting at or below it, so one
/// binary search answers a query, even when spans overlap or nest.
/// Built once per pass, in place of a scan over every span per query.
#[derive(Debug, Clone, Default)]
pub struct SpanIndex {
    /// (start, running maximum end), sorted by start.
    spans: Vec<(u64, u64)>,
}

impl SpanIndex {
    /// Index `spans`; empty and inverted spans contain nothing.
    pub fn new(spans: impl IntoIterator<Item = (u64, u64)>) -> SpanIndex {
        let mut spans: Vec<(u64, u64)> = spans.into_iter().collect();
        spans.sort_unstable();
        let mut reach = 0;
        for (_, end) in &mut spans {
            reach = reach.max(*end);
            *end = reach;
        }
        SpanIndex { spans }
    }

    /// Whether some span contains `addr`.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        self.reach(addr).is_some_and(|end| end > addr)
    }

    /// Whether one span contains all of `[start, end)`.
    #[must_use]
    pub fn covers(&self, start: u64, end: u64) -> bool {
        self.reach(start).is_some_and(|reach| reach >= end)
    }

    /// The furthest end of the spans starting at or below `addr`.
    fn reach(&self, addr: u64) -> Option<u64> {
        let n = self.spans.partition_point(|&(start, _)| start <= addr);
        n.checked_sub(1).map(|i| self.spans[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-query scan over every span that the index replaces.
    fn in_any_span(spans: &[(u64, u64)], addr: u64) -> bool {
        spans.iter().any(|&(s, e)| addr >= s && addr < e)
    }

    #[test]
    fn overlapping_and_nested_spans() {
        // Nested: [0x100, 0x200) holds [0x120, 0x140); overlapping:
        // [0x1f0, 0x260); a short span after a long one must not hide
        // the long one's tail: [0x300, 0x400) then [0x310, 0x318).
        let spans = [
            (0x100, 0x200),
            (0x120, 0x140),
            (0x1f0, 0x260),
            (0x300, 0x400),
            (0x310, 0x318),
            (0x500, 0x500),
            (0x580, 0x570),
        ];
        let index = SpanIndex::new(spans);
        for addr in 0..0x600 {
            assert_eq!(index.contains(addr), in_any_span(&spans, addr), "{addr:#x}");
        }
        assert!(
            index.contains(0x3f0),
            "tail of the long span past a short one"
        );
        assert!(!index.contains(0x500), "an empty span contains nothing");
        assert!(!SpanIndex::new([]).contains(0));
        assert!(!SpanIndex::new([]).covers(0, 0));
        assert!(index.covers(0x110, 0x200), "up to the end of the long span");
        assert!(!index.covers(0x1f8, 0x262), "no single span reaches 0x262");
    }

    proptest! {
        #[test]
        fn agrees_with_a_linear_scan(
            raw in proptest::collection::vec((0u64..512, 0u64..96), 0..24),
            probes in proptest::collection::vec(0u64..640, 1..64),
        ) {
            let spans: Vec<(u64, u64)> = raw.iter().map(|&(s, len)| (s, s + len)).collect();
            let index = SpanIndex::new(spans.iter().copied());
            for addr in probes {
                prop_assert_eq!(index.contains(addr), in_any_span(&spans, addr));
                for len in [0, 1, 8, 40] {
                    let covered = spans.iter().any(|&(s, e)| s <= addr && addr + len <= e);
                    prop_assert_eq!(index.covers(addr, addr + len), covered);
                }
            }
        }
    }
}
