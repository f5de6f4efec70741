//! One scan input for every storage kind.
//!
//! A [`ScanSource`] is an ordered list of fragments — each an in-memory
//! [`Table`] or an on-disk [`SegmentFile`], windowed to a row range — and
//! it yields zero-copy `(&Table, start, len)` windows in global row order.
//! Where the rows live is a physical detail: the GMDJ scan, the
//! distinct projection and the heavy-hitter sketch all walk windows and
//! never ask which kind of storage they read.
//!
//! Pruning is decided up front, from segment footers, by a [`ScanPlan`]:
//! a segment whose zone map a caller-supplied test refutes is skipped
//! before any worker decodes anything, and its counters are settled once
//! per scan however the scan is later cut into worker ranges. In-memory
//! fragments have no zone maps and are never pruned.

use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

use skalla_types::{Relation, Result, Row, Schema, SkallaError};

use crate::segment::SegmentFile;
use crate::stats::ColumnStats;
use crate::table::Table;

/// Where a fragment's rows live.
#[derive(Debug, Clone, Copy)]
pub enum Store<'a> {
    /// Rows held in memory.
    Table(&'a Table),
    /// Rows in a segment file, decoded one segment at a time.
    Segments(&'a SegmentFile),
}

impl<'a> Store<'a> {
    /// Row count, from footer metadata for segment files.
    pub(crate) fn rows(&self) -> usize {
        match self {
            Store::Table(t) => t.len(),
            Store::Segments(f) => f.total_rows(),
        }
    }

    /// The stored rows' schema.
    pub(crate) fn schema(&self) -> &'a Arc<Schema> {
        match self {
            Store::Table(t) => t.schema(),
            Store::Segments(f) => f.schema(),
        }
    }

    fn same(&self, other: &Store<'_>) -> bool {
        match (self, other) {
            (Store::Table(a), Store::Table(b)) => std::ptr::eq(*a, *b),
            (Store::Segments(a), Store::Segments(b)) => std::ptr::eq(*a, *b),
            _ => false,
        }
    }
}

/// An ordered, non-empty list of `(store, lo..hi)` fragments read as one
/// relation.
#[derive(Debug, Clone)]
pub struct ScanSource<'a> {
    frags: Vec<(Store<'a>, Range<usize>)>,
    prune: bool,
}

impl<'a> ScanSource<'a> {
    /// A source over `frags`, in order. Every store must share one schema
    /// and every range must lie inside its store; a fragment that resumes
    /// where the previous one on the same store stopped is read as one.
    pub fn new(frags: impl IntoIterator<Item = (Store<'a>, Range<usize>)>) -> Result<Self> {
        let mut merged: Vec<(Store<'a>, Range<usize>)> = Vec::new();
        for (store, range) in frags {
            if range.start > range.end || range.end > store.rows() {
                return Err(SkallaError::exec(format!(
                    "row range {}..{} out of bounds for a fragment of {} rows",
                    range.start,
                    range.end,
                    store.rows()
                )));
            }
            match merged.last_mut() {
                Some((s, r)) if s.same(&store) && r.end == range.start => r.end = range.end,
                _ => merged.push((store, range)),
            }
        }
        let Some((first, _)) = merged.first() else {
            return Err(SkallaError::exec("scan of zero fragments"));
        };
        if merged.iter().any(|(s, _)| s.schema() != first.schema()) {
            return Err(SkallaError::schema("scan over mismatched schemas"));
        }
        Ok(ScanSource {
            frags: merged,
            prune: true,
        })
    }

    /// All rows of one store.
    pub(crate) fn whole(store: Store<'a>) -> Self {
        ScanSource {
            frags: vec![(store, 0..store.rows())],
            prune: true,
        }
    }

    /// All rows of an in-memory table.
    pub fn table(table: &'a Table) -> Self {
        Self::whole(Store::Table(table))
    }

    /// All rows of a segment file.
    pub fn segments(file: &'a SegmentFile) -> Self {
        Self::whole(Store::Segments(file))
    }

    /// Honour (`true`, the default) or ignore zone-map refutations when
    /// planning a scan.
    pub fn with_prune(mut self, on: bool) -> Self {
        self.prune = on;
        self
    }

    /// The schema every fragment shares.
    pub fn schema(&self) -> &'a Arc<Schema> {
        self.frags[0].0.schema()
    }

    /// Total rows across all fragments.
    pub fn num_rows(&self) -> usize {
        self.frags.iter().map(|(_, r)| r.len()).sum()
    }

    /// Plan a scan: cut the fragments into pieces (one per in-memory
    /// fragment, one per intersected segment) and skip every segment whose
    /// zone map `refutes` — unless pruning is off for this source.
    pub fn plan(&self, refutes: impl Fn(&[ColumnStats]) -> bool) -> ScanPlan<'a> {
        let mut plan = ScanPlan {
            pieces: Vec::new(),
            segments_scanned: 0,
            segments_pruned: 0,
            blocks_verified: 0,
        };
        let mut at = 0;
        for (store, range) in &self.frags {
            let Store::Segments(file) = store else {
                plan.pieces.push(Piece {
                    store: *store,
                    segment: 0,
                    at,
                    local: range.clone(),
                });
                at += range.len();
                continue;
            };
            for i in 0..file.num_segments() {
                let meta = file.meta(i);
                let start = file.segment_row_start(i);
                let (lo, hi) = (range.start.max(start), range.end.min(start + meta.rows));
                if lo >= hi {
                    continue;
                }
                if self.prune && refutes(&meta.zones) {
                    plan.segments_pruned += 1;
                } else {
                    plan.segments_scanned += 1;
                    // Every column chunk of the segment passes its CRC
                    // check on decode.
                    plan.blocks_verified += self.schema().len() as u64;
                    plan.pieces.push(Piece {
                        store: *store,
                        segment: i,
                        at: at + lo - range.start,
                        local: lo - start..hi - start,
                    });
                }
            }
            at += range.len();
        }
        plan
    }

    /// Feed every row, in order, to `f` as `(table, start, len)` windows.
    pub fn for_each_window(&self, f: impl FnMut(&Table, usize, usize) -> Result<()>) -> Result<()> {
        self.plan(|_| false).for_each_window(0..self.num_rows(), f)
    }

    /// The distinct projection onto `cols` in first-seen row order — how
    /// base-values relations such as `π_{SAS,DAS}(Flow)` (paper Example 1)
    /// are computed at each site.
    pub fn distinct_project(&self, cols: &[usize]) -> Result<Relation> {
        let schema = Arc::new(self.schema().project(cols)?);
        let mut seen = HashSet::new();
        let mut rows = Vec::new();
        self.for_each_window(|t, start, len| {
            for i in start..start + len {
                let key: Row = cols.iter().map(|&c| t.column(c).get(i)).collect();
                if seen.insert(key.clone()) {
                    rows.push(key);
                }
            }
            Ok(())
        })?;
        Ok(Relation::from_rows_unchecked(schema, rows))
    }
}

/// One contiguous run of rows in a single table or segment.
#[derive(Debug)]
struct Piece<'a> {
    store: Store<'a>,
    /// Segment index (segment stores only).
    segment: usize,
    /// Global row index of the piece's first row.
    at: usize,
    /// Rows of the table (or of the decoded segment) the piece covers.
    local: Range<usize>,
}

/// A scan with its pruning decided, and the segment counters that
/// decision fixes.
#[derive(Debug)]
pub struct ScanPlan<'a> {
    pieces: Vec<Piece<'a>>,
    /// Segments the scan decodes (each counted once, however many worker
    /// ranges touch it).
    pub segments_scanned: u64,
    /// Segments skipped because their zone maps were refuted.
    pub segments_pruned: u64,
    /// Column chunks whose CRC32C the scan verifies (one per column of
    /// each scanned segment).
    pub blocks_verified: u64,
}

impl ScanPlan<'_> {
    /// Feed the unpruned rows of the global range `rows`, in order, to `f`
    /// as zero-copy `(table, start, len)` windows. A segment is decoded
    /// only when the range reaches it.
    pub fn for_each_window(
        &self,
        rows: Range<usize>,
        mut f: impl FnMut(&Table, usize, usize) -> Result<()>,
    ) -> Result<()> {
        for p in &self.pieces {
            let lo = rows.start.max(p.at);
            let hi = rows.end.min(p.at + p.local.len());
            if lo >= hi {
                continue;
            }
            let start = p.local.start + lo - p.at;
            match p.store {
                Store::Table(t) => f(t, start, hi - lo)?,
                Store::Segments(file) => f(&file.read_segment(p.segment)?, start, hi - lo)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_types::{DataType, Value};

    fn table(n: i64) -> Table {
        let schema = Schema::from_pairs([("k", DataType::Int64)])
            .unwrap()
            .into_arc();
        let rows: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Int(i)]).collect();
        Table::from_rows(schema, &rows).unwrap()
    }

    fn collect(plan: &ScanPlan<'_>, rows: Range<usize>) -> Vec<i64> {
        let mut out = Vec::new();
        plan.for_each_window(rows, |t, start, len| {
            out.extend((start..start + len).map(|i| t.column(0).get(i).as_int().unwrap()));
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn windows_follow_fragment_order_across_stores() {
        let t = table(100);
        let path = std::env::temp_dir().join(format!("skalla-scan-{}.seg", std::process::id()));
        crate::write_segments(&path, &t, 16).unwrap();
        let file = SegmentFile::open(&path).unwrap();
        let src = ScanSource::new([
            (Store::Segments(&file), 10..40),
            (Store::Table(&t), 90..95),
            (Store::Segments(&file), 40..50),
        ])
        .unwrap();
        assert_eq!(src.num_rows(), 45);
        let plan = src.plan(|_| false);
        // Segments 0..=2, then 2..=3: segment 2 is read once per fragment.
        assert_eq!(plan.segments_scanned, 5);
        let want: Vec<i64> = (10..40).chain(90..95).chain(40..50).collect();
        assert_eq!(collect(&plan, 0..45), want);
        // Any cut of the global range sees the same rows.
        let mut cut = collect(&plan, 0..23);
        cut.extend(collect(&plan, 23..45));
        assert_eq!(cut, want);
        // Adjacent fragments of one store read as one: segments 0..=3.
        let adjacent = ScanSource::new([
            (Store::Segments(&file), 10..30),
            (Store::Segments(&file), 30..50),
        ])
        .unwrap();
        assert_eq!(adjacent.plan(|_| false).segments_scanned, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pruning_is_planned_once_and_skips_only_segments() {
        let t = table(64);
        let path =
            std::env::temp_dir().join(format!("skalla-scan-prune-{}.seg", std::process::id()));
        crate::write_segments(&path, &t, 16).unwrap();
        let file = SegmentFile::open(&path).unwrap();
        // Refute every segment whose maximum key is below 32.
        let below_32 = |z: &[ColumnStats]| z[0].max.as_ref().is_some_and(|m| *m < Value::Int(32));
        let src =
            ScanSource::new([(Store::Table(&t), 0..4), (Store::Segments(&file), 0..64)]).unwrap();
        let plan = src.plan(below_32);
        assert_eq!((plan.segments_scanned, plan.segments_pruned), (2, 2));
        assert_eq!(plan.blocks_verified, 2);
        let want: Vec<i64> = (0..4).chain(32..64).collect();
        assert_eq!(collect(&plan, 0..68), want);
        let off = src.clone().with_prune(false).plan(below_32);
        assert_eq!((off.segments_scanned, off.segments_pruned), (4, 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_fragments() {
        let t = table(5);
        assert!(ScanSource::new([(Store::Table(&t), 2..6)]).is_err());
        assert!(ScanSource::new(Vec::new()).is_err());
        let other = Table::empty(
            Schema::from_pairs([("x", DataType::Utf8)])
                .unwrap()
                .into_arc(),
        );
        assert!(ScanSource::new([(Store::Table(&t), 0..5), (Store::Table(&other), 0..0)]).is_err());
    }
}
