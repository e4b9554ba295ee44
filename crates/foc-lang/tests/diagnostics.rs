//! Every front-end diagnostic a malformed program gets, word for word.
//!
//! Tokens own no text — an identifier is a span of the source and a name
//! is an interned symbol — so the words a diagnostic quotes are read back
//! from the source or the symbol table. Each row holds the exact
//! `Display` of the error (message and `line:col`) a program gets.

/// (source, `FrontendError` as displayed).
const ROWS: &[(&str, &str)] = &[
    // Lexer.
    (
        "int x = @;",
        "parse error: unexpected character `@` at 1:10",
    ),
    (
        "char *s = \"abc",
        "parse error: unterminated string literal at 1:15",
    ),
    (
        "int x;\n/* never ends",
        "parse error: unterminated block comment at 2:1",
    ),
    (
        "char *s = \"\\x\";",
        "parse error: empty hex escape at 1:14",
    ),
    (
        "char *s = \"\\q\";",
        "parse error: unknown escape `\\q` at 1:14",
    ),
    (
        "int c = 'ab';",
        "parse error: unterminated character literal at 1:12",
    ),
    (
        "long x = 99999999999999999999;",
        "parse error: integer literal out of range at 1:30",
    ),
    (
        "int x = 0x;",
        "parse error: malformed integer literal at 1:11",
    ),
    // Parser.
    (
        "int f() { return x y; }",
        "parse error: expected `;`, found identifier `y` at 1:20",
    ),
    (
        "foo bar;",
        "parse error: expected declaration or function, found identifier `foo` at 1:1",
    ),
    (
        "int 3x;",
        "parse error: expected identifier, found integer literal 3 at 1:5",
    ),
    (
        "int \"abc\";",
        "parse error: expected identifier, found string literal at 1:5",
    ),
    (
        "int f() { return int; }",
        "parse error: expected expression, found keyword `Int` at 1:18",
    ),
    (
        "int f() { x = ; }",
        "parse error: expected expression, found `;` at 1:15",
    ),
    (
        "int f() {",
        "parse error: expected expression, found end of input at 1:10",
    ),
    (
        "struct s { int a; }",
        "parse error: expected `;`, found end of input at 1:20",
    ),
    (
        "int x[0];",
        "parse error: array dimension must be positive at 1:8",
    ),
    (
        "int f(int c) { switch (c) { case c: return 1; } return 0; }",
        "parse error: case label must be constant at 1:35",
    ),
    // Sema.
    (
        "int f() { return x; }",
        "type error: unknown identifier `x` at 1:18",
    ),
    (
        "int f() { return g(); }",
        "type error: unknown function `g` at 1:18",
    ),
    ("struct t *p;", "type error: unknown struct `t` at 1:11"),
    (
        "struct s { int a; };\nstruct s { int b; };",
        "type error: duplicate struct `s` at 2:8",
    ),
    ("int g;\nlong g;", "type error: duplicate global `g` at 2:6"),
    (
        "int f() { int x; int x; return 0; }",
        "type error: duplicate local `x` at 1:22",
    ),
    (
        "struct s { int a; };\nint f(struct s *p) { return p->z; }",
        "type error: no field `z` in struct `s` at 2:30",
    ),
    (
        "int f(int a) { return a.x; }",
        "type error: `.` on non-struct int at 1:24",
    ),
    (
        "struct s { void v; };",
        "type error: field `v` cannot be void at 1:8",
    ),
    (
        "int f() { goto nowhere; return 0; }",
        "type error: goto to undefined label `nowhere` at 1:11",
    ),
    (
        "int f() { return sizeof(void); }",
        "type error: sizeof(void) at 1:18",
    ),
];

/// Types too large to be objects and `void` where a size is needed: one
/// row per way an unchecked size goes wrong, each refused at the
/// declaration or expression that asks for the size.
const SIZE_ROWS: &[(&str, &str)] = &[
    // Sizes that wrap to a 0-byte global.
    (
        "char a[4611686018427387904][8];",
        "type error: `a` is larger than 16777216 bytes at 1:6",
    ),
    (
        "long a[2305843009213693952];",
        "type error: `a` is larger than 16777216 bytes at 1:6",
    ),
    // A 2^61-byte frame.
    (
        "int f() { char b[2305843009213693952]; return 0; }",
        "type error: `b` is larger than 16777216 bytes at 1:16",
    ),
    // Struct offsets past `u64`, and a struct just past the bound.
    (
        "struct s { char a[9223372036854775807]; char b[9223372036854775807]; };",
        "type error: `a` is larger than 16777216 bytes at 1:8",
    ),
    (
        "struct s { char a[16777216]; char b[1]; };",
        "type error: struct `s` is larger than 16777216 bytes at 1:8",
    ),
    // A zero image the host cannot allocate.
    (
        "char a[68719476736];",
        "type error: `a` is larger than 16777216 bytes at 1:6",
    ),
    // A zero image that takes seconds to build.
    (
        "char a[1073741824];",
        "type error: `a` is larger than 16777216 bytes at 1:6",
    ),
    // `void` has no size.
    ("void g[2];", "type error: `g` is an array of void at 1:6"),
    (
        "struct s { void v[2]; };",
        "type error: `v` is an array of void at 1:8",
    ),
    (
        "long f(void *p) { return (long)(p + 1); }",
        "type error: void has no size at 1:35",
    ),
    (
        "int f(void *p) { p++; return 0; }",
        "type error: void has no size at 1:19",
    ),
    (
        "int f(void *p) { return p[0]; }",
        "type error: void has no size at 1:26",
    ),
];

fn check(rows: &[(&str, &str)]) {
    for (src, expected) in rows {
        match foc_lang::frontend(src) {
            Ok(_) => panic!("{src:?} compiled; expected {expected:?}"),
            Err(e) => assert_eq!(e.to_string(), *expected, "for {src:?}"),
        }
    }
}

#[test]
fn malformed_programs_get_their_diagnostics_word_for_word() {
    check(ROWS);
}

#[test]
fn oversized_and_void_objects_are_refused_at_their_declaration() {
    check(SIZE_ROWS);
}

#[test]
fn the_largest_object_compiles() {
    let program = foc_lang::frontend("char a[16777216]; struct s { char b[16777208]; long c; };")
        .expect("an object of exactly MAX_OBJECT_SIZE bytes is allowed");
    assert_eq!(program.globals[0].init.len(), 1 << 24);
    assert_eq!(program.layouts.structs[0].size, 1 << 24);
}
