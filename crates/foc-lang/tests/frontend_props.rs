//! Property tests for the front end: the parser must never panic on
//! arbitrary input, generated well-formed programs must round-trip
//! through the pretty-printer and type-check deterministically, and no
//! nesting, however deep, may exhaust the stack of a thread the size of
//! `cargo test`'s default (2 MiB).

use proptest::prelude::*;

use foc_lang::parser::{parse, MAX_NESTING};
use foc_lang::pretty::print_unit;

/// Runs the front end over `src` on a 2 MiB thread, to its error text.
fn frontend_on_small_stack(src: String) -> Result<(), String> {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            foc_lang::frontend(&src)
                .map(drop)
                .map_err(|e| e.to_string())
        })
        .expect("spawn")
        .join()
        .expect("the front end panicked")
}

/// A program nesting one construct `n` deep.
type Nested = fn(usize) -> String;

/// Each shape of nesting, by name.
const DEEP: [(&str, Nested); 11] = [
    ("parentheses", |n| {
        format!(
            "int f(int x) {{ return {}x{}; }}",
            "(".repeat(n),
            ")".repeat(n)
        )
    }),
    ("blocks", |n| {
        format!("int f() {{ {}{} return 0; }}", "{".repeat(n), "}".repeat(n))
    }),
    ("ifs", |n| {
        format!(
            "int f(int x) {{ {} return 0; return 1; }}",
            "if (x)".repeat(n)
        )
    }),
    ("else-ifs", |n| {
        format!(
            "int f(int x) {{ if (x) x = 0;{} return x; }}",
            " else if (x) x = 1;".repeat(n)
        )
    }),
    ("unary minus", |n| {
        format!("int f(int x) {{ return {}x; }}", "- ".repeat(n))
    }),
    ("a sum", |n| {
        format!("int f(int x) {{ return x{}; }}", " + x".repeat(n))
    }),
    ("an assignment chain", |n| {
        format!("int f(int x) {{ {}0; return x; }}", "x = ".repeat(n))
    }),
    ("a conditional chain", |n| {
        format!("int f(int x) {{ return {}x; }}", "x ? x : ".repeat(n))
    }),
    ("a comma chain", |n| {
        format!("int f(int x) {{ return (x{}); }}", ", x".repeat(n))
    }),
    ("pointer levels", |n| format!("char {}p;", "*".repeat(n))),
    ("array dimensions", |n| {
        format!("char a{};", "[1]".repeat(n))
    }),
];

#[test]
fn nesting_past_the_bound_is_refused_not_a_stack_overflow() {
    for (shape, program) in DEEP {
        for n in [3_000, 10_000] {
            let refused = frontend_on_small_stack(program(n));
            assert!(
                refused
                    .as_ref()
                    .is_err_and(|e| e.contains("nesting deeper than")),
                "{shape} nested {n} deep: {refused:?}"
            );
        }
    }
}

#[test]
fn the_deepest_accepted_nesting_fits_a_small_stack() {
    for (shape, program) in DEEP {
        // Walk up to the bound on the small stack itself: every depth
        // the parser accepts is parsed, checked and dropped there.
        let deepest = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                (1..=MAX_NESTING as usize + 1)
                    .find(|&n| {
                        foc_lang::frontend(&program(n))
                            .is_err_and(|e| e.to_string().contains("nesting deeper than"))
                    })
                    .map(|n| n - 1)
            })
            .expect("spawn")
            .join()
            .expect("the front end panicked");
        let deepest = deepest.unwrap_or_else(|| panic!("{shape} was never refused"));
        assert!(deepest >= 64, "{shape}: only {deepest} levels accepted");
    }
}

/// Strategy: arbitrary byte soup rendered as a string — the parser must
/// reject or accept without panicking.
fn arbitrary_source() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just("int".to_string()),
            Just("char".to_string()),
            Just("struct".to_string()),
            Just("if".to_string()),
            Just("while".to_string()),
            Just("return".to_string()),
            Just("sizeof".to_string()),
            Just("(".to_string()),
            Just(")".to_string()),
            Just("{".to_string()),
            Just("}".to_string()),
            Just("[".to_string()),
            Just("]".to_string()),
            Just(";".to_string()),
            Just(",".to_string()),
            Just("*".to_string()),
            Just("&".to_string()),
            Just("=".to_string()),
            Just("+".to_string()),
            Just("->".to_string()),
            Just("...".to_string()),
            Just("\"str\"".to_string()),
            Just("'c'".to_string()),
            Just("0x1F".to_string()),
            "[a-z]{1,6}",
            "[0-9]{1,6}",
        ],
        0..60,
    )
    .prop_map(|tokens| tokens.join(" "))
}

/// Strategy: a small well-formed arithmetic program.
fn well_formed_program() -> impl Strategy<Value = String> {
    let expr = prop_oneof![
        (0i64..1000).prop_map(|v| v.to_string()),
        Just("a".to_string()),
        Just("b".to_string()),
    ];
    let op = prop_oneof![
        Just("+"),
        Just("-"),
        Just("*"),
        Just("|"),
        Just("&"),
        Just("^"),
        Just("<<"),
        Just("=="),
        Just("<"),
    ];
    proptest::collection::vec((expr.clone(), op, expr), 1..12).prop_map(|terms| {
        let mut body = String::from("int f(int a, int b) { int acc = 0;\n");
        for (l, o, r) in terms {
            body.push_str(&format!("acc = acc + ({l} {o} {r});\n"));
        }
        body.push_str("return acc; }");
        body
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parser_never_panics(src in arbitrary_source()) {
        let _ = parse(&src); // must not panic, Ok or Err both fine
    }

    #[test]
    fn lexer_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(0x20u8..0x7F, 0..200)) {
        let src = String::from_utf8(bytes).unwrap();
        let _ = foc_lang::Lexer::new(&src).tokenize();
    }

    #[test]
    fn well_formed_programs_round_trip(src in well_formed_program()) {
        let first = parse(&src).expect("well-formed program parses");
        let printed = print_unit(&first);
        let second = parse(&printed).expect("printed program reparses");
        prop_assert_eq!(print_unit(&first), print_unit(&second));
        // And both type-check to the same HIR, node for node.
        let a = foc_lang::frontend(&src).expect("type checks");
        let b = foc_lang::frontend(&printed).expect("printed type checks");
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn sema_never_panics_on_parsed_soup(src in arbitrary_source()) {
        if let Ok(unit) = parse(&src) {
            let _ = foc_lang::analyze(&unit); // Ok or Err, no panic
        }
    }
}
