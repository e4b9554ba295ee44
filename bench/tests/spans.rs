//! Span bookkeeping: self time, nesting, and appending sibling tracers.

use foc_farm_bench::spans::{append, self_times_ns, totals_by_name, Span, Tracer};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        request: None,
    }
}

#[test]
fn self_time_is_duration_minus_covered_child_time() {
    let spans = [
        span("root", 0, 100, None),
        span("a", 10, 30, Some(0)),
        // Overlaps `a` by 5: the overlap is covered once, not twice.
        span("b", 25, 50, Some(0)),
        span("a.inner", 12, 20, Some(1)),
        // Starts inside the root and runs past its end: only the part
        // inside the root is the root's covered time.
        span("c", 90, 120, Some(0)),
    ];
    // Root: 100 - ([10,50) = 40) - ([90,100) = 10) = 50.
    assert_eq!(self_times_ns(&spans), vec![50, 12, 25, 8, 30]);
}

#[test]
fn a_span_without_children_is_all_self_time() {
    let spans = [span("leaf", 5, 9, None)];
    assert_eq!(self_times_ns(&spans), vec![4]);
}

#[test]
fn totals_group_by_name() {
    let spans = [
        span("root", 0, 100, None),
        span("req", 0, 10, Some(0)),
        span("req", 20, 50, Some(0)),
    ];
    let totals = totals_by_name(&spans);
    assert_eq!(totals["req"].count, 2);
    assert_eq!(totals["req"].total_ns, 40);
    assert_eq!(totals["req"].self_ns, 40);
    assert_eq!(totals["root"].self_ns, 60);
}

#[test]
fn tracer_nests_by_call_order_and_shares_request_ids() {
    let mut tracer = Tracer::new(true);
    tracer.span("outer", None, || ());
    tracer.enter("slice", None);
    tracer.span("request", Some(7), || ());
    tracer.span("restart", Some(7), || ());
    tracer.exit();
    let spans = tracer.into_spans();
    let names: Vec<_> = spans.iter().map(|s| s.name).collect();
    assert_eq!(names, ["outer", "slice", "request", "restart"]);
    assert_eq!(spans[0].parent, None);
    assert_eq!(spans[2].parent, Some(1));
    assert_eq!(spans[3].parent, Some(1));
    assert_eq!(spans[2].request, spans[3].request);
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    assert!(spans[1].end_ns >= spans[3].end_ns);
}

#[test]
fn a_disabled_tracer_records_nothing() {
    let mut tracer = Tracer::new(false);
    assert_eq!(tracer.span("ignored", None, || 3), 3);
    assert!(tracer.spans().is_empty());
}

#[test]
fn appended_spans_keep_their_parents() {
    let main = Tracer::new(true);
    let mut sibling = main.sibling(true);
    sibling.enter("replay", None);
    sibling.span("request", Some(0), || ());
    sibling.exit();
    let mut spans = vec![span("fixed", 0, 1, None), span("fixed", 1, 2, None)];
    append(&mut spans, sibling.into_spans());
    assert_eq!(spans[2].parent, None);
    assert_eq!(spans[3].parent, Some(2));
}
