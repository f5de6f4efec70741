//! The reference base-result structure `X`.
//!
//! No query path synchronizes through this module: every coordinator and
//! mid-tier runs [`ShardedSync`](crate::sync::ShardedSync). [`BaseResult`]
//! is the single-threaded, line-by-line statement of the paper's structure
//! that the differential suites (`tests/sharded_sync.rs`, the `sync` unit
//! tests), `benches/synchronization.rs` and the `coord_sync` gate compare
//! the engine against, bit for bit.
//!
//! "The base-results structure maintained at the coordinator is indexed on
//! K, which allows us to efficiently determine RNG(X, t, θ_K) for any tuple
//! t in H and then update the structure accordingly; i.e., the
//! synchronization can be computed in O(|H|)." (paper §3.2)
//!
//! [`BaseResult`] holds, per group: the base part of the row (key and any
//! previously finalized aggregate columns) and the raw sub-aggregate state
//! of the current segment's aggregates. [`BaseResult::merge_fragment`]
//! implements the Theorem 1 super-aggregation; [`BaseResult::finalize`]
//! renders the next base relation `B_k`.

use std::collections::HashMap;
use std::sync::Arc;

use skalla_gmdj::AggSpec;
use skalla_types::{Field, Relation, Result, Row, Schema, SkallaError};

/// Key-indexed synchronization structure.
#[derive(Debug, Clone)]
pub struct BaseResult {
    base_schema: Arc<Schema>,
    output_fields: Vec<Field>,
    key_cols: Vec<usize>,
    specs: Vec<AggSpec>,
    state_width: usize,
    index: HashMap<Row, usize>,
    rows: Vec<Row>,
    states: Vec<Vec<Value>>,
}

use skalla_types::Value;

impl BaseResult {
    /// Initialize from a synchronized base relation: one group per base row,
    /// every aggregate at its identity state.
    pub fn from_base(
        base: &Relation,
        key_cols: &[usize],
        specs: Vec<AggSpec>,
        output_fields: Vec<Field>,
    ) -> Result<BaseResult> {
        let mut br = BaseResult::empty(base.schema().clone(), key_cols, specs, output_fields);
        for row in base.rows() {
            br.insert_group(row.clone())?;
        }
        Ok(br)
    }

    /// An empty structure; groups are inserted as fragments arrive
    /// (Proposition 2 mode, where the base is never synchronized and each
    /// site contributes disjoint groups).
    pub fn empty(
        base_schema: Arc<Schema>,
        key_cols: &[usize],
        specs: Vec<AggSpec>,
        output_fields: Vec<Field>,
    ) -> BaseResult {
        let state_width = specs.iter().map(AggSpec::state_width).sum();
        BaseResult {
            base_schema,
            output_fields,
            key_cols: key_cols.to_vec(),
            specs,
            state_width,
            index: HashMap::new(),
            rows: Vec::new(),
            states: Vec::new(),
        }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no groups are present.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The base-part schema.
    pub fn base_schema(&self) -> &Arc<Schema> {
        &self.base_schema
    }

    fn key_of(&self, base_part: &[Value]) -> Row {
        self.key_cols
            .iter()
            .map(|&c| base_part[c].clone())
            .collect()
    }

    fn insert_group(&mut self, base_part: Row) -> Result<usize> {
        if base_part.len() != self.base_schema.len() {
            return Err(SkallaError::exec(format!(
                "group row has {} columns, base schema has {}",
                base_part.len(),
                self.base_schema.len()
            )));
        }
        let key = self.key_of(&base_part);
        if let Some(&idx) = self.index.get(&key) {
            return Ok(idx);
        }
        let idx = self.rows.len();
        let mut state = Vec::with_capacity(self.state_width);
        for s in &self.specs {
            state.extend(s.init_state());
        }
        self.index.insert(key, idx);
        self.rows.push(base_part);
        self.states.push(state);
        Ok(idx)
    }

    /// Synchronize one site's fragment `H` into `X` (Theorem 1). Fragment
    /// rows are `base part ++ state columns`. With `allow_new = false`
    /// (standard rounds, where the coordinator shipped the base), a key
    /// missing from the index is an execution error; with `allow_new = true`
    /// (Proposition 2 local bases), new groups are inserted.
    ///
    /// The merge is **all-or-nothing**: arity, state types, and (without
    /// `allow_new`) key membership are validated for the whole fragment
    /// before any row is folded in, so a rejected fragment leaves `X`
    /// untouched and `DegradedMode::Partial` coverage accounting stays
    /// exact. Arithmetic overflow during the merge itself remains the one
    /// residual (query-fatal) failure.
    ///
    /// Runs in O(|H|).
    pub fn merge_fragment(&mut self, frag: &Relation, allow_new: bool) -> Result<()> {
        let expect = self.base_schema.len() + self.state_width;
        if frag.schema().len() != expect {
            return Err(SkallaError::exec(format!(
                "fragment has {} columns, expected {} (base {} + state {})",
                frag.schema().len(),
                expect,
                self.base_schema.len(),
                self.state_width
            )));
        }
        let base_width = self.base_schema.len();
        for row in frag.rows() {
            let mut off = base_width;
            for spec in &self.specs {
                let w = spec.state_width();
                spec.validate_incoming(&row[off..off + w])?;
                off += w;
            }
            if !allow_new {
                let key = self.key_of(&row[..base_width]);
                if !self.index.contains_key(&key) {
                    return Err(SkallaError::exec(format!(
                        "fragment contains unknown group key {key:?}"
                    )));
                }
            }
        }
        for row in frag.rows() {
            let base_part = &row[..base_width];
            let key = self.key_of(base_part);
            let idx = match self.index.get(&key) {
                Some(&i) => i,
                None if allow_new => self.insert_group(base_part.to_vec())?,
                None => {
                    return Err(SkallaError::exec(format!(
                        "fragment contains unknown group key {key:?}"
                    )))
                }
            };
            let state = &mut self.states[idx];
            let mut off = base_width;
            let mut soff = 0;
            for spec in &self.specs {
                let w = spec.state_width();
                spec.merge(&mut state[soff..soff + w], &row[off..off + w])?;
                off += w;
                soff += w;
            }
        }
        Ok(())
    }

    /// Render the *unfinalized* structure: base columns plus raw
    /// sub-aggregate state columns. This is what a mid-tier coordinator in
    /// a multi-tier topology ships upward — state merges associatively, so
    /// partial synchronization composes (Theorem 1 applied per tier).
    pub fn to_state_relation(&self) -> Result<Relation> {
        let state_fields: Vec<Field> = {
            // State fields carry the same names a site fragment would use;
            // reconstruct them generically (name collisions are impossible
            // because fragment schemas validated upstream).
            let mut out = Vec::with_capacity(self.state_width);
            for (i, spec) in self.specs.iter().enumerate() {
                for w in 0..spec.state_width() {
                    out.push(Field::new(
                        format!("__state_{i}_{w}"),
                        skalla_types::DataType::Int64, // placeholder, see below
                    ));
                }
            }
            out
        };
        // Types in the placeholder fields are irrelevant for wire transfer
        // of Relations (values are self-describing); but keep the relation
        // well-formed by only using it as a container.
        let mut fields = self.base_schema.fields().to_vec();
        fields.extend(state_fields);
        let schema = Arc::new(Schema::new(fields)?);
        let mut rows = Vec::with_capacity(self.rows.len());
        for (base_part, state) in self.rows.iter().zip(&self.states) {
            let mut row = base_part.clone();
            row.extend(state.iter().cloned());
            rows.push(row);
        }
        Ok(Relation::from_rows_unchecked(schema, rows))
    }

    /// Render the synchronized result `B_k`: base columns plus finalized
    /// aggregate outputs, in group insertion order.
    pub fn finalize(&self) -> Result<Relation> {
        let mut fields = self.base_schema.fields().to_vec();
        fields.extend(self.output_fields.iter().cloned());
        let schema = Arc::new(Schema::new(fields)?);

        let mut rows = Vec::with_capacity(self.rows.len());
        for (base_part, state) in self.rows.iter().zip(&self.states) {
            let mut row = base_part.clone();
            let mut off = 0;
            for spec in &self.specs {
                let w = spec.state_width();
                row.push(spec.finalize(&state[off..off + w])?);
                off += w;
            }
            rows.push(row);
        }
        Ok(Relation::from_rows_unchecked(schema, rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_expr::Expr;
    use skalla_types::DataType;

    fn base() -> Relation {
        let schema = Schema::from_pairs([("k", DataType::Int64)])
            .unwrap()
            .into_arc();
        Relation::new(schema, vec![vec![Value::Int(1)], vec![Value::Int(2)]]).unwrap()
    }

    fn specs() -> Vec<AggSpec> {
        vec![
            AggSpec::count_star("cnt"),
            AggSpec::avg(Expr::detail(1), "avg").unwrap(),
        ]
    }

    fn output_fields() -> Vec<Field> {
        vec![
            Field::new("cnt", DataType::Int64),
            Field::new("avg", DataType::Float64),
        ]
    }

    fn frag(rows: Vec<Row>) -> Relation {
        // k, cnt_state, avg_sum, avg_count
        let schema = Schema::from_pairs([
            ("k", DataType::Int64),
            ("cnt", DataType::Int64),
            ("avg__sum", DataType::Int64),
            ("avg__count", DataType::Int64),
        ])
        .unwrap()
        .into_arc();
        Relation::new(schema, rows).unwrap()
    }

    #[test]
    fn merges_two_site_fragments() {
        let mut x = BaseResult::from_base(&base(), &[0], specs(), output_fields()).unwrap();
        assert_eq!(x.len(), 2);
        // Site 1: group 1 matched twice (sum 10), group 2 untouched.
        x.merge_fragment(
            &frag(vec![
                vec![Value::Int(1), Value::Int(2), Value::Int(10), Value::Int(2)],
                vec![Value::Int(2), Value::Int(0), Value::Null, Value::Int(0)],
            ]),
            false,
        )
        .unwrap();
        // Site 2: group 1 matched once (sum 20), group 2 matched once (sum 6).
        x.merge_fragment(
            &frag(vec![
                vec![Value::Int(1), Value::Int(1), Value::Int(20), Value::Int(1)],
                vec![Value::Int(2), Value::Int(1), Value::Int(6), Value::Int(1)],
            ]),
            false,
        )
        .unwrap();
        let out = x.finalize().unwrap().sorted();
        assert_eq!(out.schema().names(), vec!["k", "cnt", "avg"]);
        assert_eq!(
            out.row(0),
            &vec![Value::Int(1), Value::Int(3), Value::Float(10.0)]
        );
        assert_eq!(
            out.row(1),
            &vec![Value::Int(2), Value::Int(1), Value::Float(6.0)]
        );
    }

    #[test]
    fn reduced_fragments_omit_unmatched_groups() {
        // Site-side group reduction: site 1 ships only group 1.
        let mut x = BaseResult::from_base(&base(), &[0], specs(), output_fields()).unwrap();
        x.merge_fragment(
            &frag(vec![vec![
                Value::Int(1),
                Value::Int(1),
                Value::Int(5),
                Value::Int(1),
            ]]),
            false,
        )
        .unwrap();
        let out = x.finalize().unwrap().sorted();
        // Group 2 keeps identity aggregates.
        assert_eq!(out.row(1), &vec![Value::Int(2), Value::Int(0), Value::Null]);
    }

    #[test]
    fn unknown_group_rejected_unless_allowed() {
        let mut x = BaseResult::from_base(&base(), &[0], specs(), output_fields()).unwrap();
        let f = frag(vec![vec![
            Value::Int(99),
            Value::Int(1),
            Value::Int(5),
            Value::Int(1),
        ]]);
        assert!(x.merge_fragment(&f, false).is_err());
        x.merge_fragment(&f, true).unwrap();
        assert_eq!(x.len(), 3);
    }

    #[test]
    fn empty_mode_inserts_disjoint_groups() {
        let schema = Schema::from_pairs([("k", DataType::Int64)])
            .unwrap()
            .into_arc();
        let mut x = BaseResult::empty(schema, &[0], specs(), output_fields());
        assert!(x.is_empty());
        x.merge_fragment(
            &frag(vec![vec![
                Value::Int(5),
                Value::Int(1),
                Value::Int(7),
                Value::Int(1),
            ]]),
            true,
        )
        .unwrap();
        x.merge_fragment(
            &frag(vec![vec![
                Value::Int(6),
                Value::Int(2),
                Value::Int(4),
                Value::Int(2),
            ]]),
            true,
        )
        .unwrap();
        let out = x.finalize().unwrap().sorted();
        assert_eq!(out.len(), 2);
        assert_eq!(
            out.row(0),
            &vec![Value::Int(5), Value::Int(1), Value::Float(7.0)]
        );
        assert_eq!(
            out.row(1),
            &vec![Value::Int(6), Value::Int(2), Value::Float(2.0)]
        );
    }

    #[test]
    fn fragment_arity_checked() {
        let mut x = BaseResult::from_base(&base(), &[0], specs(), output_fields()).unwrap();
        let bad_schema = Schema::from_pairs([("k", DataType::Int64)])
            .unwrap()
            .into_arc();
        let bad = Relation::new(bad_schema, vec![vec![Value::Int(1)]]).unwrap();
        assert!(x.merge_fragment(&bad, false).is_err());
    }

    #[test]
    fn rejected_fragment_leaves_structure_untouched() {
        let mut x = BaseResult::from_base(&base(), &[0], specs(), output_fields()).unwrap();
        // A valid first row followed by a bad one: a string COUNT state,
        // then (separately) an unknown key. Neither fragment may merge its
        // leading valid row.
        let bad_type = frag(vec![
            vec![Value::Int(1), Value::Int(3), Value::Int(9), Value::Int(1)],
            vec![Value::Int(2), Value::str("x"), Value::Null, Value::Int(0)],
        ]);
        assert!(x.merge_fragment(&bad_type, false).is_err());
        let bad_key = frag(vec![
            vec![Value::Int(1), Value::Int(3), Value::Int(9), Value::Int(1)],
            vec![Value::Int(99), Value::Int(1), Value::Null, Value::Int(0)],
        ]);
        assert!(x.merge_fragment(&bad_key, false).is_err());
        let out = x.finalize().unwrap().sorted();
        // Every group is still at the identity state.
        assert_eq!(out.row(0), &vec![Value::Int(1), Value::Int(0), Value::Null]);
        assert_eq!(out.row(1), &vec![Value::Int(2), Value::Int(0), Value::Null]);
    }

    #[test]
    fn duplicate_base_rows_collapse_to_one_group() {
        let schema = Schema::from_pairs([("k", DataType::Int64)])
            .unwrap()
            .into_arc();
        let dup = Relation::new(
            schema,
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(1)],
                vec![Value::Int(2)],
            ],
        )
        .unwrap();
        let x = BaseResult::from_base(&dup, &[0], specs(), output_fields()).unwrap();
        assert_eq!(x.len(), 2);
    }

    #[test]
    fn composite_keys_use_all_key_columns() {
        let schema = Schema::from_pairs([("a", DataType::Int64), ("b", DataType::Int64)])
            .unwrap()
            .into_arc();
        let base = Relation::new(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(1)],
                vec![Value::Int(1), Value::Int(2)],
            ],
        )
        .unwrap();
        let x = BaseResult::from_base(
            &base,
            &[0, 1],
            vec![AggSpec::count_star("c")],
            vec![Field::new("c", DataType::Int64)],
        )
        .unwrap();
        assert_eq!(x.len(), 2);
        assert_eq!(x.base_schema().len(), 2);
    }
}
