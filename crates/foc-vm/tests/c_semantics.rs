//! C-semantics torture tests: expressions whose values are fixed by the C
//! standard, executed through the full pipeline in every mode. Expected
//! values were computed with a reference C compiler.

use foc_memory::Mode;
use foc_vm::{Machine, MachineConfig};

fn eval(expr_src: &str) -> i64 {
    let src = format!("long f() {{ return {expr_src}; }}");
    let mut results = Vec::new();
    for mode in Mode::ALL {
        let mut m = Machine::from_source(&src, MachineConfig::with_mode(mode)).unwrap();
        results.push(m.call("f", &[]).unwrap());
    }
    for w in results.windows(2) {
        assert_eq!(w[0], w[1], "modes disagree on `{expr_src}`");
    }
    results[0]
}

#[test]
fn integer_promotion_and_conversion() {
    assert_eq!(eval("(char) 200"), -56);
    assert_eq!(eval("(unsigned char) 200"), 200);
    assert_eq!(eval("(char) 200 + 0"), -56);
    assert_eq!(eval("(short) 0x8000"), -32768);
    assert_eq!(eval("(unsigned short) -1"), 65535);
    assert_eq!(eval("(int) 0x80000000"), -2147483648);
    assert_eq!(eval("(unsigned int) -1"), 4294967295);
    assert_eq!(eval("(long) (unsigned int) -1"), 4294967295);
    assert_eq!(eval("(long) (int) -1"), -1);
}

#[test]
fn signed_division_truncates_toward_zero() {
    assert_eq!(eval("7 / 2"), 3);
    assert_eq!(eval("-7 / 2"), -3);
    assert_eq!(eval("7 / -2"), -3);
    assert_eq!(eval("-7 / -2"), 3);
    assert_eq!(eval("7 % 3"), 1);
    assert_eq!(eval("-7 % 3"), -1);
    assert_eq!(eval("7 % -3"), 1);
}

#[test]
fn shifts_are_type_aware() {
    assert_eq!(eval("1 << 10"), 1024);
    assert_eq!(eval("-8 >> 1"), -4, "arithmetic shift for signed");
    assert_eq!(
        eval("(unsigned int) -8 >> 1"),
        2147483644,
        "logical for unsigned"
    );
    assert_eq!(eval("((long) 1 << 40)"), 1 << 40);
}

#[test]
fn comparison_signedness() {
    assert_eq!(eval("-1 < 1"), 1);
    assert_eq!(eval("(unsigned int) -1 < 1"), 0, "wraps to UINT_MAX");
    assert_eq!(eval("(unsigned char) 255 > 0"), 1);
    assert_eq!(eval("(char) 255 > 0"), 0, "signed char 0xFF is -1");
}

#[test]
fn int_arithmetic_wraps_at_32_bits() {
    assert_eq!(eval("2147483647 + 1"), -2147483648);
    assert_eq!(eval("(int) (2147483647 * 2)"), -2);
    // But long arithmetic does not.
    assert_eq!(eval("(long) 2147483647 + 1"), 2147483648);
}

#[test]
fn logical_operators_yield_zero_or_one() {
    assert_eq!(eval("5 && 3"), 1);
    assert_eq!(eval("5 && 0"), 0);
    assert_eq!(eval("0 || 7"), 1);
    assert_eq!(eval("!7"), 0);
    assert_eq!(eval("!0"), 1);
    assert_eq!(eval("!!42"), 1);
}

#[test]
fn short_circuit_skips_side_effects() {
    let src = r#"
        int hits = 0;
        int bump() { hits++; return 1; }
        int f() {
            hits = 0;
            int a = 0 && bump();
            int b = 1 || bump();
            return hits * 100 + a * 10 + b;
        }
    "#;
    for mode in Mode::ALL {
        let mut m = Machine::from_source(src, MachineConfig::with_mode(mode)).unwrap();
        assert_eq!(m.call("f", &[]).unwrap(), 1, "mode {mode:?}");
    }
}

#[test]
fn evaluation_of_comma_and_ternary() {
    assert_eq!(eval("(1, 2, 3)"), 3);
    assert_eq!(eval("1 ? 10 : 20"), 10);
    assert_eq!(eval("0 ? 10 : 20"), 20);
    assert_eq!(eval("2 > 1 ? (3, 4) : 5"), 4);
}

#[test]
fn sizeof_values() {
    assert_eq!(eval("sizeof(char)"), 1);
    assert_eq!(eval("sizeof(int)"), 4);
    assert_eq!(eval("sizeof(char *)"), 8);
    assert_eq!(eval("sizeof(unsigned long)"), 8);
    let src = r#"
        struct s { char c; long l; char d; };
        long f() { struct s x; x.c = 1; return sizeof(struct s) + sizeof x.l; }
    "#;
    let mut m = Machine::from_source(src, MachineConfig::default()).unwrap();
    assert_eq!(m.call("f", &[]).unwrap(), 24 + 8);
}

#[test]
fn string_literal_properties() {
    let src = r#"
        long f() {
            char *s = "ab\tc";
            return strlen(s) * 1000 + s[2];
        }
    "#;
    for mode in Mode::ALL {
        let mut m = Machine::from_source(src, MachineConfig::with_mode(mode)).unwrap();
        assert_eq!(m.call("f", &[]).unwrap(), 4 * 1000 + 9, "mode {mode:?}");
    }
}

#[test]
fn two_dimensional_arrays() {
    let src = r#"
        long f() {
            int grid[3][4];
            int i; int j;
            for (i = 0; i < 3; i++)
                for (j = 0; j < 4; j++)
                    grid[i][j] = i * 10 + j;
            return grid[2][3] * 100 + grid[1][0];
        }
    "#;
    for mode in Mode::ALL {
        let mut m = Machine::from_source(src, MachineConfig::with_mode(mode)).unwrap();
        assert_eq!(m.call("f", &[]).unwrap(), 23 * 100 + 10, "mode {mode:?}");
    }
}

#[test]
fn pointer_to_pointer_and_swap() {
    let src = r#"
        void swap(int **a, int **b) { int *t = *a; *a = *b; *b = t; }
        long f() {
            int x = 1; int y = 2;
            int *px = &x; int *py = &y;
            swap(&px, &py);
            return *px * 10 + *py;
        }
    "#;
    for mode in Mode::ALL {
        let mut m = Machine::from_source(src, MachineConfig::with_mode(mode)).unwrap();
        assert_eq!(m.call("f", &[]).unwrap(), 21, "mode {mode:?}");
    }
}

#[test]
fn struct_pointers_in_arrays_of_structs() {
    let src = r#"
        struct node { int value; int next; };
        struct node nodes[8];
        long f() {
            int i;
            for (i = 0; i < 8; i++) { nodes[i].value = i * i; nodes[i].next = (i + 1) % 8; }
            /* walk the ring twice */
            int at = 0; long acc = 0;
            for (i = 0; i < 16; i++) { acc += nodes[at].value; at = nodes[at].next; }
            return acc;
        }
    "#;
    let expect: i64 = 2 * (0..8).map(|i| i * i).sum::<i64>();
    for mode in Mode::ALL {
        let mut m = Machine::from_source(src, MachineConfig::with_mode(mode)).unwrap();
        assert_eq!(m.call("f", &[]).unwrap(), expect, "mode {mode:?}");
    }
}

#[test]
fn do_while_and_nested_break_continue() {
    let src = r#"
        long f() {
            long acc = 0;
            int i = 0;
            do {
                int j;
                for (j = 0; j < 10; j++) {
                    if (j == 3) continue;
                    if (j == 7) break;
                    acc = acc * 10 + j;
                }
                i++;
            } while (i < 2);
            return acc;
        }
    "#;
    // inner loop contributes 0,1,2,4,5,6 twice
    let mut expect = 0i64;
    for _ in 0..2 {
        for j in [0, 1, 2, 4, 5, 6] {
            expect = expect * 10 + j;
        }
    }
    for mode in Mode::ALL {
        let mut m = Machine::from_source(src, MachineConfig::with_mode(mode)).unwrap();
        assert_eq!(m.call("f", &[]).unwrap(), expect, "mode {mode:?}");
    }
}

/// The libc shim's value builtins and `strncpy`'s padding, against C's
/// (glibc, `gcc -O0`): both tiers share these walks, so no tier
/// comparison can tell a wrong value from a right one.
#[test]
fn libc_values_match_c() {
    let spaces = " ".repeat(100);
    let atoi = [
        ("++5", 0),
        ("+ 5", 0),
        ("+-5", 0),
        ("-+5", 0),
        ("\\n5", 5),
        ("\\x0b 7", 7),
        (&format!("{spaces}5"), 5),
        (" \\t-12x", -12),
        ("+7", 7),
    ];
    for (text, want) in atoi {
        assert_eq!(eval(&format!("atoi(\"{text}\")")), want, "atoi(\"{text}\")");
    }
    for (call, want) in [
        ("toupper(-1)", -1),
        ("tolower(-1)", -1),
        ("toupper(200)", 200),
        ("toupper(97)", 65),
        ("tolower(90)", 122),
    ] {
        assert_eq!(eval(call), want, "{call}");
    }
    // `strncpy` pads with NULs up to its count and writes nothing past.
    let src = "long f() { char d[8]; long i; long t = 0; memset(d, 'x', 8);\n\
               strncpy(d, \"ab\", 6);\n\
               for (i = 0; i < 8; i++) t = t * 256 + d[i];\n\
               return t; }";
    let want = i64::from_be_bytes(*b"ab\0\0\0\0xx");
    for mode in Mode::ALL {
        let mut m = Machine::from_source(src, MachineConfig::with_mode(mode)).unwrap();
        assert_eq!(m.call("f", &[]).unwrap(), want, "strncpy under {mode:?}");
    }
}
