//! Tests of query planning: which of a collection's secondary indexes
//! [`probe`](crate::index::probe) asks for a filter's candidate ids, and
//! which ids they give. The probe itself lives beside the indexes, in
//! [`crate::index`]; a read runs it over its plan's terms (see
//! [`crate::collection`]).

pub(crate) mod tests {
    use crate::filter::Filter;
    use crate::index::{probe, PathIndex, PlanKind};
    use crate::value::DocId;
    use serde_json::{json, Value};
    use std::collections::BTreeMap;

    /// The plan, and its candidate ids, that `filter` probes `indexes` for.
    pub(crate) fn plan(
        filter: &Filter,
        indexes: &BTreeMap<String, PathIndex>,
    ) -> (PlanKind, Option<Vec<DocId>>) {
        probe(indexes, filter.clauses.iter())
    }

    /// An index holding each `(value, id)` of `entries`.
    pub(crate) fn index_on(entries: &[(Value, u64)]) -> PathIndex {
        let mut index = PathIndex::new();
        for (value, id) in entries {
            index.insert(value, DocId(*id));
        }
        index
    }

    /// `DocId`s of `ids`, in the order given.
    pub(crate) fn doc_ids(ids: &[u64]) -> Vec<DocId> {
        ids.iter().map(|&id| DocId(id)).collect()
    }

    #[test]
    fn no_index_means_full_scan() {
        let indexes = BTreeMap::new();
        let plan = plan(&Filter::eq("model", "A"), &indexes);
        assert_eq!(plan, (PlanKind::FullScan, None));
    }

    #[test]
    fn eq_plan_uses_index_in_id_order() {
        let mut indexes = BTreeMap::new();
        indexes.insert(
            "model".to_owned(),
            index_on(&[(json!("A"), 2), (json!("A"), 0), (json!("B"), 1)]),
        );
        let plan = plan(&Filter::eq("model", "A"), &indexes);
        assert_eq!(plan, (PlanKind::IndexEq, Some(doc_ids(&[0, 2]))));
    }

    #[test]
    fn range_candidates_are_sorted_by_id() {
        // Key order disagrees with id order on purpose.
        let mut indexes = BTreeMap::new();
        indexes.insert(
            "spl".to_owned(),
            index_on(&[(json!(40.0), 3), (json!(55.0), 1), (json!(70.0), 0)]),
        );
        let plan = plan(&Filter::gt("spl", 30.0), &indexes);
        assert_eq!(plan, (PlanKind::IndexRange, Some(doc_ids(&[0, 1, 3]))));
    }

    #[test]
    fn conjunction_intersects_candidate_sets() {
        let mut indexes = BTreeMap::new();
        indexes.insert(
            "model".to_owned(),
            index_on(&[(json!("A"), 0), (json!("A"), 2), (json!("B"), 1)]),
        );
        indexes.insert(
            "spl".to_owned(),
            index_on(&[(json!(40.0), 0), (json!(55.0), 1), (json!(70.0), 2)]),
        );
        let filter = Filter::and(vec![Filter::eq("model", "A"), Filter::gt("spl", 50.0)]);
        let plan = plan(&filter, &indexes);
        assert_eq!(plan, (PlanKind::IndexIntersect, Some(doc_ids(&[2]))));
    }

    #[test]
    fn missing_index_on_one_clause_still_uses_the_other() {
        let mut indexes = BTreeMap::new();
        indexes.insert(
            "model".to_owned(),
            index_on(&[(json!("A"), 0), (json!("B"), 1)]),
        );
        let filter = Filter::and(vec![Filter::eq("model", "A"), Filter::gt("spl", 50.0)]);
        let plan = plan(&filter, &indexes);
        assert_eq!(plan, (PlanKind::IndexEq, Some(doc_ids(&[0]))));
    }

    #[test]
    fn empty_intersection_short_circuits() {
        let mut indexes = BTreeMap::new();
        indexes.insert("a".to_owned(), index_on(&[(json!(1), 0)]));
        indexes.insert("b".to_owned(), index_on(&[(json!(1), 1)]));
        let filter = Filter::and(vec![Filter::eq("a", 1), Filter::eq("b", 1)]);
        let plan = plan(&filter, &indexes);
        assert_eq!(plan, (PlanKind::IndexIntersect, Some(Vec::new())));
    }
}
