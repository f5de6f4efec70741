//! The correctness gate: every reply must equal the centralized
//! evaluator's answer on the identical table, rows sorted and floats
//! compared by their bits.
//!
//! Replies are reduced to an order-independent fingerprint when they
//! arrive (so the run does not hold thousands of relations), and a few
//! replies are kept whole for a row-by-row comparison. The centralized
//! evaluation runs after the timed window.

use std::collections::HashMap;
use std::sync::Arc;

use skalla_gmdj::eval_expr_centralized;
use skalla_planner::parse_query;
use skalla_storage::Catalog;
use skalla_types::{Relation, Schema, Value};

/// Row count plus two independent sums of per-row hashes over the values'
/// bit patterns: equal for two relations holding the same multiset of
/// rows, whatever their order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: usize,
    a: u64,
    b: u64,
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn hash_row(row: &[Value], seed: u64) -> u64 {
    let mut h = seed;
    for v in row {
        h = match v {
            Value::Null => fnv(h, &[0]),
            Value::Int(i) => fnv(fnv(h, &[1]), &i.to_le_bytes()),
            Value::Float(f) => fnv(fnv(h, &[2]), &f.to_bits().to_le_bytes()),
            Value::Str(s) => {
                let h = fnv(fnv(h, &[3]), &(s.len() as u64).to_le_bytes());
                fnv(h, s.as_bytes())
            }
            Value::Bool(b) => fnv(h, &[4, u8::from(*b)]),
        };
    }
    // Final avalanche so that row sums do not cancel structurally.
    let mut z = h;
    z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    z ^ (z >> 33)
}

pub fn fingerprint(rel: &Relation) -> Fingerprint {
    let mut fp = Fingerprint {
        rows: rel.len(),
        a: 0,
        b: 0,
    };
    for row in rel.rows() {
        fp.a = fp.a.wrapping_add(hash_row(row, 0xcbf2_9ce4_8422_2325));
        fp.b = fp.b.wrapping_add(hash_row(row, 0x8422_2325_cbf2_9ce4));
    }
    fp
}

fn same_bits(x: &Value, y: &Value) -> bool {
    match (x, y) {
        (Value::Float(p), Value::Float(q)) => p.to_bits() == q.to_bits(),
        _ => x == y,
    }
}

/// Row-by-row comparison of the sorted relations; floats by bits.
pub fn compare_bits(got: &Relation, want: &Relation) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} rows, expected {}", got.len(), want.len()));
    }
    let (got, want) = (got.sorted(), want.sorted());
    for (i, (g, w)) in got.rows().iter().zip(want.rows()).enumerate() {
        if g.len() != w.len() || !g.iter().zip(w).all(|(x, y)| same_bits(x, y)) {
            return Err(format!("row {i}: {g:?}, expected {w:?}"));
        }
    }
    Ok(())
}

/// The centralized answer of each query text, evaluated on `threads`
/// threads.
pub fn centralized(
    texts: &[String],
    schemas: &HashMap<String, Arc<Schema>>,
    catalog: &Catalog,
    threads: usize,
) -> Result<Vec<Relation>, String> {
    let threads = threads.max(1);
    let mut out: Vec<Option<Relation>> = vec![None; texts.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    (t..texts.len())
                        .step_by(threads)
                        .map(|i| {
                            let expr = parse_query(&texts[i], schemas)
                                .map_err(|e| format!("parse `{}`: {e}", texts[i]))?;
                            let rel = eval_expr_centralized(&expr, catalog)
                                .map_err(|e| format!("centralized `{}`: {e}", texts[i]))?;
                            Ok((i, rel))
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        for h in handles {
            for (i, rel) in h.join().expect("centralized evaluation thread panicked")? {
                out[i] = Some(rel);
            }
        }
        Ok::<(), String>(())
    })?;
    Ok(out
        .into_iter()
        .map(|r| r.expect("every text evaluated"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_types::DataType;

    fn rel(rows: Vec<Vec<Value>>) -> Relation {
        let schema = Schema::from_pairs([("k", DataType::Int64), ("v", DataType::Float64)])
            .unwrap()
            .into_arc();
        Relation::new(schema, rows).unwrap()
    }

    #[test]
    fn fingerprint_ignores_order_but_not_bits() {
        let a = rel(vec![
            vec![Value::Int(1), Value::Float(0.5)],
            vec![Value::Int(2), Value::Float(1.5)],
        ]);
        let b = rel(vec![
            vec![Value::Int(2), Value::Float(1.5)],
            vec![Value::Int(1), Value::Float(0.5)],
        ]);
        let c = rel(vec![
            vec![Value::Int(2), Value::Float(1.5)],
            vec![Value::Int(1), Value::Float(0.5 + f64::EPSILON)],
        ]);
        let d = rel(vec![
            vec![Value::Int(2), Value::Float(1.5)],
            vec![Value::Int(1), Value::Float(-0.0)],
        ]);
        let e = rel(vec![
            vec![Value::Int(2), Value::Float(1.5)],
            vec![Value::Int(1), Value::Float(0.0)],
        ]);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        assert_ne!(fingerprint(&d), fingerprint(&e));
        assert_eq!(fingerprint(&a).rows, 2);
    }

    #[test]
    fn compare_bits_sorts_and_flags_the_first_difference() {
        let a = rel(vec![
            vec![Value::Int(1), Value::Float(0.1 + 0.2)],
            vec![Value::Int(2), Value::Float(1.0)],
        ]);
        let b = rel(vec![
            vec![Value::Int(2), Value::Float(1.0)],
            vec![Value::Int(1), Value::Float(0.1 + 0.2)],
        ]);
        let c = rel(vec![
            vec![Value::Int(2), Value::Float(1.0)],
            vec![Value::Int(1), Value::Float(0.3)],
        ]);
        assert_eq!(compare_bits(&a, &b), Ok(()));
        assert!(compare_bits(&a, &c).unwrap_err().starts_with("row 0"));
        assert!(compare_bits(&a, &rel(vec![])).is_err());
    }
}
