//! Per-site table catalogs.

use std::collections::HashMap;
use std::sync::Arc;

use skalla_types::{Result, Schema, SkallaError};

use crate::partition::{partition_table_name, PartFrag};
use crate::scan::{ScanSource, Store};
use crate::segment::SegmentFile;
use crate::table::Table;

/// A name → table map. Each Skalla site owns one catalog holding its local
/// partitions of the warehouse's fact relations. A name can instead be
/// backed by an on-disk [`SegmentFile`] (out-of-core mode). Scans resolve
/// either kind through [`Catalog::scan_source`] and never ask which.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, Arc<Table>>,
    segments: HashMap<String, Arc<SegmentFile>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a table under `name`, replacing any previous entry
    /// (including a segment-backed one).
    pub fn register(&mut self, name: impl Into<String>, table: Table) {
        let name = name.into();
        self.segments.remove(&name);
        self.tables.insert(name, Arc::new(table));
    }

    /// Register an already-shared table.
    pub fn register_arc(&mut self, name: impl Into<String>, table: Arc<Table>) {
        let name = name.into();
        self.segments.remove(&name);
        self.tables.insert(name, table);
    }

    /// Look up a table by name, materializing a segment-backed name in
    /// full. Only for callers that need every row in memory anyway (the
    /// ship-all baseline); scans use [`Catalog::scan_source`].
    pub fn get(&self, name: &str) -> Result<Arc<Table>> {
        if let Some(t) = self.tables.get(name) {
            return Ok(t.clone());
        }
        if let Some(f) = self.segments.get(name) {
            return Ok(Arc::new(f.read_all()?));
        }
        Err(SkallaError::not_found(format!("table `{name}`")))
    }

    /// The rows a request scans: `parts: None` is the table registered
    /// under `name`; `Some(fs)` is the listed partition fragments, in
    /// order, each resolved under its [`partition_table_name`] alias and
    /// windowed to its [`PartFrag::row_bounds`]. Replicas are
    /// bit-identical with identical row order, so a fragment denotes the
    /// same rows on every host. Nothing is read or copied here.
    pub fn scan_source(&self, name: &str, parts: Option<&[PartFrag]>) -> Result<ScanSource<'_>> {
        let Some(fs) = parts else {
            return Ok(ScanSource::whole(self.store(name)?));
        };
        if fs.is_empty() {
            return Err(SkallaError::exec("request names an empty fragment list"));
        }
        let frags = fs
            .iter()
            .map(|f| {
                let store = self.store(&partition_table_name(name, f.part as usize))?;
                let (lo, hi) = f.row_bounds(store.rows());
                Ok((store, lo..hi))
            })
            .collect::<Result<Vec<_>>>()?;
        ScanSource::new(frags)
    }

    /// Row count of a registered name — from footer metadata for
    /// segment-backed names.
    pub fn num_rows(&self, name: &str) -> Result<usize> {
        self.store(name).map(|s| s.rows())
    }

    fn store(&self, name: &str) -> Result<Store<'_>> {
        if let Some(t) = self.tables.get(name) {
            return Ok(Store::Table(t));
        }
        if let Some(f) = self.segments.get(name) {
            return Ok(Store::Segments(f));
        }
        Err(SkallaError::not_found(format!("table `{name}`")))
    }

    /// Schema of a registered name — from footer metadata for
    /// segment-backed names, so out-of-core tables are never materialized
    /// just to learn their shape.
    pub fn schema_of(&self, name: &str) -> Result<Arc<Schema>> {
        self.store(name).map(|s| s.schema().clone())
    }

    /// Back `name` with an on-disk segment file. Any in-memory table under
    /// the same name is dropped — the segment store is now authoritative,
    /// so a stale copy cannot shadow it.
    pub fn register_segments(&mut self, name: impl Into<String>, file: Arc<SegmentFile>) {
        let name = name.into();
        self.tables.remove(&name);
        self.segments.insert(name, file);
    }

    /// The segment file backing `name`, if it is segment-backed (the scrub
    /// path verifies and quarantines files by name).
    pub fn get_segments(&self, name: &str) -> Option<Arc<SegmentFile>> {
        self.segments.get(name).cloned()
    }

    /// Drop `name` entirely (in-memory and/or segment-backed). Used by the
    /// scrub path to quarantine a corrupt segment file: once unregistered,
    /// queries fail with `NotFound` instead of re-reading bad bytes.
    pub fn unregister(&mut self, name: &str) {
        self.tables.remove(name);
        self.segments.remove(name);
    }

    /// `true` if `name` is registered (in-memory or segment-backed).
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name) || self.segments.contains_key(name)
    }

    /// Names of all registered tables (in-memory and segment-backed), sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .tables
            .keys()
            .chain(self.segments.keys())
            .map(String::as_str)
            .collect();
        names.sort_unstable();
        names
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len() + self.segments.len()
    }

    /// `true` if no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty() && self.segments.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_types::{DataType, Schema};

    fn tiny() -> Table {
        Table::empty(
            Schema::from_pairs([("a", DataType::Int64)])
                .unwrap()
                .into_arc(),
        )
    }

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        c.register("flow", tiny());
        assert!(c.contains("flow"));
        assert!(c.get("flow").is_ok());
        assert!(c.get("other").is_err());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn register_replaces() {
        let mut c = Catalog::new();
        c.register("t", tiny());
        let shared = Arc::new(tiny());
        c.register_arc("t", shared.clone());
        assert!(Arc::ptr_eq(&c.get("t").unwrap(), &shared));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn scan_source_resolves_both_storage_kinds() {
        let schema = Schema::from_pairs([("a", DataType::Int64)])
            .unwrap()
            .into_arc();
        let rows: Vec<Vec<skalla_types::Value>> =
            (0..10).map(|i| vec![skalla_types::Value::Int(i)]).collect();
        let t = Table::from_rows(schema, &rows).unwrap();
        let path = std::env::temp_dir().join(format!("skalla-catalog-{}.seg", std::process::id()));
        crate::write_segments(&path, &t, 4).unwrap();
        let mut c = Catalog::new();
        c.register(partition_table_name("t", 0), t.clone());
        c.register_segments(
            partition_table_name("t", 1),
            Arc::new(SegmentFile::open(&path).unwrap()),
        );
        let half = |part| PartFrag {
            part,
            frag: 1,
            of: 2,
        };
        let src = c
            .scan_source("t", Some(&[half(0), PartFrag::whole(1), half(1)]))
            .unwrap();
        assert_eq!(src.num_rows(), 5 + 10 + 5);
        assert_eq!(c.num_rows(&partition_table_name("t", 1)).unwrap(), 10);
        assert!(c.scan_source("t", Some(&[])).is_err());
        assert!(c.scan_source("t", None).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn names_sorted() {
        let mut c = Catalog::new();
        c.register("b", tiny());
        c.register("a", tiny());
        assert_eq!(c.table_names(), vec!["a", "b"]);
    }
}
