//! Property-based tests (proptest) for the system's core invariants.

use proptest::prelude::*;

use skalla::expr::{
    derive_group_filter, eval_base, eval_predicate, Expr, Interval, SiteConstraint,
};
use skalla::net::{WireDecode, WireEncode};
use skalla::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-1000i64..1000).prop_map(Value::Int),
        (-1000.0f64..1000.0).prop_map(Value::Float),
        "[a-z]{0,8}".prop_map(Value::str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

proptest! {
    /// Wire format: every value round-trips exactly.
    #[test]
    fn wire_value_round_trip(v in arb_value()) {
        let bytes = v.to_wire();
        let back = Value::from_wire(&bytes).unwrap();
        prop_assert_eq!(back, v);
    }

    /// Wire format: relations of random shape round-trip exactly.
    #[test]
    fn wire_relation_round_trip(
        rows in prop::collection::vec(
            (any::<i64>(), "[a-z]{0,5}", any::<bool>()),
            0..20,
        )
    ) {
        let schema = Schema::from_pairs([
            ("a", DataType::Int64),
            ("b", DataType::Utf8),
            ("c", DataType::Bool),
        ]).unwrap().into_arc();
        let rel = Relation::new(
            schema,
            rows.into_iter()
                .map(|(a, b, c)| vec![Value::Int(a), Value::str(b), Value::Bool(c)])
                .collect(),
        ).unwrap();
        let back = Relation::from_wire(&rel.to_wire()).unwrap();
        prop_assert_eq!(back, rel);
    }

    /// Value equality implies hash equality (groups depend on it).
    #[test]
    fn value_eq_implies_hash_eq(a in arb_value(), b in arb_value()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        if a == b {
            prop_assert_eq!(h(&a), h(&b));
        }
    }

    /// Value ordering is transitive and antisymmetric on random triples.
    #[test]
    fn value_order_is_consistent(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.cmp(&c), Ordering::Greater);
        }
    }

    /// Interval arithmetic is sound: if `x ∈ I` and `y ∈ J` then
    /// `x + y ∈ I + J` and `k·x ∈ k·I`.
    #[test]
    fn interval_arithmetic_sound(
        (lo1, w1) in (-100.0f64..100.0, 0.0f64..50.0),
        (lo2, w2) in (-100.0f64..100.0, 0.0f64..50.0),
        t1 in 0.0f64..1.0,
        t2 in 0.0f64..1.0,
        k in -10.0f64..10.0,
    ) {
        let i = Interval::closed(lo1, lo1 + w1);
        let j = Interval::closed(lo2, lo2 + w2);
        let x = lo1 + t1 * w1;
        let y = lo2 + t2 * w2;
        prop_assert!(i.contains(x));
        prop_assert!(j.contains(y));
        prop_assert!(i.add(&j).contains(x + y));
        let scaled = i.scale(k);
        prop_assert!(scaled.contains(k * x) || (k * x - 0.0).abs() < 1e-12 && scaled.contains(0.0));
        // Intersection: points in both are in the intersection.
        if j.contains(x) {
            prop_assert!(i.intersect(&j).contains(x));
        }
    }

    /// Theorem 4 soundness: the derived base filter never rejects a group
    /// that some site tuple could match.
    #[test]
    fn group_filter_is_sound(
        site_lo in -50i64..50,
        site_width in 0i64..40,
        detail_vals in prop::collection::vec(-100i64..100, 1..30),
        base_val in -100i64..100,
        extra_const in -100i64..100,
        op_pick in 0usize..4,
    ) {
        let site_hi = site_lo + site_width;
        // Detail rows restricted to the site's range (this *is* φᵢ).
        let rows: Vec<Vec<Value>> = detail_vals
            .iter()
            .map(|v| vec![Value::Int((v.rem_euclid(site_width + 1)) + site_lo)])
            .collect();
        let site = SiteConstraint::none()
            .with_range(0, Interval::closed(site_lo as f64, site_hi as f64));

        // θ: one comparison between b.0 (+ constant) and r.0.
        let lhs = Expr::base(0).add(Expr::lit(extra_const));
        let theta = match op_pick {
            0 => lhs.eq(Expr::detail(0)),
            1 => lhs.lt(Expr::detail(0)),
            2 => lhs.ge(Expr::detail(0)),
            _ => lhs.le(Expr::detail(0).mul(Expr::lit(2))),
        };

        let filter = derive_group_filter(&[&theta], &site);
        let b = vec![Value::Int(base_val)];
        let matched_any = rows
            .iter()
            .any(|r| eval_predicate(&theta, &b, r).unwrap());
        if matched_any {
            // The filter must keep this group.
            let keeps = match eval_base(&filter, &b).unwrap() {
                Value::Bool(x) => x,
                Value::Null => false,
                other => panic!("non-boolean filter value {other}"),
            };
            prop_assert!(keeps, "filter {filter} dropped matching group {base_val}");
        }
    }

    /// GMDJ partition invariance (Theorem 1 at full query granularity):
    /// splitting the detail relation anywhere leaves the distributed result
    /// unchanged.
    #[test]
    fn gmdj_partition_invariance(
        rows in prop::collection::vec((0i64..6, 0i64..4, 0i64..100), 1..60),
        split_seed in any::<u64>(),
        n_sites in 1usize..4,
    ) {
        let schema = Schema::from_pairs([
            ("g", DataType::Int64),
            ("h", DataType::Int64),
            ("v", DataType::Int64),
        ]).unwrap().into_arc();
        let data: Vec<Vec<Value>> = rows
            .iter()
            .map(|(g, h, v)| vec![Value::Int(*g), Value::Int(*h), Value::Int(*v)])
            .collect();
        let table = Table::from_rows(schema.clone(), &data).unwrap();

        // Arbitrary row→site assignment derived from the seed.
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n_sites];
        let mut s = split_seed | 1;
        for i in 0..table.len() as u32 {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            buckets[(s % n_sites as u64) as usize].push(i);
        }
        let parts = Partitioning {
            parts: buckets.iter().map(|idx| table.take(idx)).collect(),
            partition_col: None,
        };

        let md = GmdjOp::new(vec![GmdjBlock::new(
            vec![
                AggSpec::count_star("c"),
                AggSpec::sum(Expr::detail(2), "s").unwrap(),
                AggSpec::min(Expr::detail(2), "mn").unwrap(),
                AggSpec::max(Expr::detail(2), "mx").unwrap(),
                AggSpec::avg(Expr::detail(2), "av").unwrap(),
            ],
            Expr::base(0).eq(Expr::detail(0)),
        )]);
        let query = GmdjExpr::new(
            BaseSpec::DistinctProject { cols: vec![0] },
            "t",
            vec![md],
            vec![0],
        ).unwrap();

        let mut full = Catalog::new();
        full.register("t", table);
        let expected = eval_expr_centralized(&query, &full).unwrap().sorted();

        let catalogs: Vec<Catalog> = parts.parts.iter().map(|p| {
            let mut c = Catalog::new();
            c.register("t", p.clone());
            c
        }).collect();
        let wh = DistributedWarehouse::launch(catalogs, CostModel::free()).unwrap();
        let (result, _) = wh.execute(&DistPlan::unoptimized(query)).unwrap();
        wh.shutdown().unwrap();
        prop_assert_eq!(result.sorted(), expected);
    }

    /// Coalescing is semantics-preserving on arbitrary independent chains.
    #[test]
    fn coalescing_preserves_semantics(
        rows in prop::collection::vec((0i64..5, 0i64..50), 1..40),
        threshold in 0i64..50,
    ) {
        let schema = Schema::from_pairs([
            ("g", DataType::Int64),
            ("v", DataType::Int64),
        ]).unwrap().into_arc();
        let data: Vec<Vec<Value>> = rows
            .iter()
            .map(|(g, v)| vec![Value::Int(*g), Value::Int(*v)])
            .collect();
        let table = Table::from_rows(schema, &data).unwrap();

        let md1 = GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::count_star("c1")],
            Expr::base(0).eq(Expr::detail(0)),
        )]);
        let md2 = GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::sum(Expr::detail(1), "s2").unwrap()],
            Expr::base(0).eq(Expr::detail(0))
                .and(Expr::detail(1).gt(Expr::lit(threshold))),
        )]);
        let query = GmdjExpr::new(
            BaseSpec::DistinctProject { cols: vec![0] },
            "t",
            vec![md1, md2],
            vec![0],
        ).unwrap();
        let (coalesced, steps) = skalla::gmdj::coalesce_chain(&query).unwrap();
        prop_assert_eq!(steps, 1);

        let mut cat = Catalog::new();
        cat.register("t", table);
        let a = eval_expr_centralized(&query, &cat).unwrap().sorted();
        let b = eval_expr_centralized(&coalesced, &cat).unwrap().sorted();
        prop_assert_eq!(a, b);
    }

    /// The hash and nested-loop local strategies agree on arbitrary data.
    #[test]
    fn local_strategies_agree(
        rows in prop::collection::vec((0i64..5, -20i64..20), 0..50),
    ) {
        use skalla::gmdj::{eval_gmdj_full, EvalOptions, LocalStrategy};
        use skalla::storage::ScanSource;
        let schema = Schema::from_pairs([
            ("g", DataType::Int64),
            ("v", DataType::Int64),
        ]).unwrap().into_arc();
        let data: Vec<Vec<Value>> = rows
            .iter()
            .map(|(g, v)| vec![Value::Int(*g), Value::Int(*v)])
            .collect();
        let table = Table::from_rows(schema.clone(), &data).unwrap();
        let base = table.distinct_project(&[0]).unwrap();
        let op = GmdjOp::new(vec![GmdjBlock::new(
            vec![
                AggSpec::count_star("c"),
                AggSpec::avg(Expr::detail(1), "a").unwrap(),
            ],
            Expr::base(0).eq(Expr::detail(0)).and(Expr::detail(1).ge(Expr::lit(0))),
        )]);
        let (hash, _) = eval_gmdj_full(&base, &ScanSource::table(&table), &op, &EvalOptions::default()).unwrap();
        let opts = EvalOptions { strategy: LocalStrategy::NestedLoop, ..Default::default() };
        let (nested, _) = eval_gmdj_full(&base, &ScanSource::table(&table), &op, &opts).unwrap();
        prop_assert_eq!(hash.sorted(), nested.sorted());
    }
}
