//! The query shapes, as query text with a seeded literal.
//!
//! The ad-hoc and segment shapes are the paper's §5 queries (COUNT and
//! AVG per GMDJ). Shapes grouped on a partitioned attribute (custname,
//! nationname, cityname) average `extendedprice`. Shapes whose groups
//! span sites (clerk, orderkey) aggregate `quantity`: its values are whole
//! numbers, so per-site partial sums merge to the same bits in any order
//! and the bit-exact gate applies to them too. A two-decimal measure
//! there differs from the centralized evaluator in the last bit, because
//! distributed float sums reassociate across sites (EXPERIMENTS.md,
//! "Distributed float aggregates").

use skalla_tpcr::TIMELINE_DAYS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One GMDJ on custname, the high-cardinality partition attribute.
    SingleCust,
    /// Paper Example 1: the second GMDJ reads the first one's AVG.
    CorrelatedCust,
    /// The Fig. 3 coalescible pair on clerk (not partitioned).
    CoalesceClerk,
    /// One GMDJ on orderkey: 30k groups at scale 2, ~1.4 MB up.
    OrderkeyWide,
    /// The most recent ~150 days: zone maps prune most segments.
    WindowNation,
    /// The full date range: every segment is decoded.
    HistoryNation,
    DashNation,
    DashClerk,
    DashCity,
    DashCust,
}

pub const ALL: [Shape; 10] = [
    Shape::SingleCust,
    Shape::CorrelatedCust,
    Shape::CoalesceClerk,
    Shape::OrderkeyWide,
    Shape::WindowNation,
    Shape::HistoryNation,
    Shape::DashNation,
    Shape::DashClerk,
    Shape::DashCity,
    Shape::DashCust,
];

/// Days of the most recent window `WindowNation` reads.
const WINDOW_DAYS: i64 = 150;

impl Shape {
    pub fn name(self) -> &'static str {
        match self {
            Shape::SingleCust => "single_cust",
            Shape::CorrelatedCust => "correlated_cust",
            Shape::CoalesceClerk => "coalesce_clerk",
            Shape::OrderkeyWide => "orderkey_wide",
            Shape::WindowNation => "window_nation",
            Shape::HistoryNation => "history_nation",
            Shape::DashNation => "dash_nation",
            Shape::DashClerk => "dash_clerk",
            Shape::DashCity => "dash_city",
            Shape::DashCust => "dash_cust",
        }
    }

    /// The query text with literal `d` (a small day offset: 0–255 keeps
    /// the work of every literal within a few percent).
    pub fn text(self, d: u32) -> String {
        let end = TIMELINE_DAYS;
        match self {
            Shape::SingleCust => format!(
                "BASE DISTINCT custname FROM tpcr;
                 MD COUNT(*) AS cnt, AVG(extendedprice) AS avg
                    WHERE b.custname = r.custname AND r.orderdate >= {d};"
            ),
            Shape::CorrelatedCust => format!(
                "BASE DISTINCT custname FROM tpcr;
                 MD COUNT(*) AS cnt1, AVG(extendedprice) AS avg1
                    WHERE b.custname = r.custname AND r.orderdate >= {d};
                 MD COUNT(*) AS cnt2
                    WHERE b.custname = r.custname AND r.extendedprice >= b.avg1;"
            ),
            Shape::CoalesceClerk => format!(
                "BASE DISTINCT clerk FROM tpcr;
                 MD COUNT(*) AS cnt1, AVG(quantity) AS avg1
                    WHERE b.clerk = r.clerk AND r.orderdate >= {d};
                 MD COUNT(*) AS cnt2, AVG(quantity) AS avg2
                    WHERE b.clerk = r.clerk AND r.extendedprice > 250000.0;"
            ),
            Shape::OrderkeyWide => format!(
                "BASE DISTINCT orderkey FROM tpcr;
                 MD COUNT(*) AS cnt, AVG(quantity) AS avg
                    WHERE b.orderkey = r.orderkey AND r.orderdate >= {d};"
            ),
            Shape::WindowNation => {
                let lo = end - WINDOW_DAYS - i64::from(d);
                format!(
                    "BASE DISTINCT nationname FROM tpcr;
                     MD COUNT(*) AS cnt, AVG(extendedprice) AS avg
                        WHERE b.nationname = r.nationname
                          AND r.orderdate >= {lo} AND r.orderdate < {end};"
                )
            }
            Shape::HistoryNation => format!(
                "BASE DISTINCT nationname FROM tpcr;
                 MD COUNT(*) AS cnt, AVG(extendedprice) AS avg
                    WHERE b.nationname = r.nationname
                      AND r.orderdate >= {d} AND r.orderdate < {end};"
            ),
            Shape::DashNation => dashboard("nationname", "extendedprice", d),
            Shape::DashClerk => dashboard("clerk", "quantity", d),
            Shape::DashCity => dashboard("cityname", "extendedprice", d),
            Shape::DashCust => dashboard("custname", "extendedprice", d),
        }
    }
}

fn dashboard(group: &str, measure: &str, d: u32) -> String {
    format!(
        "BASE DISTINCT {group} FROM tpcr;
         MD COUNT(*) AS orders, SUM({measure}) AS total
            WHERE b.{group} = r.{group} AND r.orderdate >= {d};"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn every_shape_parses_and_literals_make_distinct_texts() {
        let schemas = HashMap::from([("tpcr".to_string(), skalla_tpcr::tpcr_schema())]);
        for shape in ALL {
            for d in [0, 17, 255] {
                skalla_planner::parse_query(&shape.text(d), &schemas)
                    .unwrap_or_else(|e| panic!("{}: {e}", shape.name()));
            }
            assert_ne!(shape.text(1), shape.text(2));
        }
        let names: std::collections::BTreeSet<_> = ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), ALL.len());
    }
}
