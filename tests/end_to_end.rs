//! End-to-end pipeline tests: MiniC source → front end → bytecode → VM →
//! memory policy, exercised across crates.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

use failure_oblivious::memory::{ErrorKind, Mode};
use failure_oblivious::{run, Machine, MachineConfig, RunError, VmFault};

/// The paper's Figure 1, compiled and executed directly: convert a benign
/// name, then an attack name, in each mode.
#[test]
fn figure1_conversion_end_to_end() {
    use failure_oblivious::servers::mutt::MUTT_SOURCE;

    let convert = |mode: Mode, name: &[u8]| -> Result<Option<Vec<u8>>, VmFault> {
        let mut m = Machine::from_source(MUTT_SOURCE, MachineConfig::with_mode(mode)).unwrap();
        let p = m.alloc_cstring(name).unwrap();
        let r = m.call("utf8_to_utf7", &[p as i64, name.len() as i64])?;
        if r == 0 {
            return Ok(None);
        }
        Ok(Some(m.read_cstring(r as u64)))
    };

    // Plain ASCII converts to itself in every mode.
    for mode in [Mode::Standard, Mode::BoundsCheck, Mode::FailureOblivious] {
        let out = convert(mode, b"INBOX").unwrap().unwrap();
        assert_eq!(out, b"INBOX".to_vec(), "mode {mode:?}");
    }

    // A non-ASCII name with enough ASCII padding that the 2x estimate
    // holds: the conversion must be byte-for-byte correct.
    // U+00E9 (é) = 0xC3 0xA9 → UTF-7 "&AOk-"; "éaaaa" → "&AOk-aaaa".
    for mode in [Mode::Standard, Mode::BoundsCheck, Mode::FailureOblivious] {
        let name = [0xC3, 0xA9, b'a', b'a', b'a', b'a'];
        let out = convert(mode, &name).unwrap().unwrap();
        assert_eq!(out, b"&AOk-aaaa".to_vec(), "mode {mode:?}");
    }

    // A *bare* two-byte character expands by 5/2 — past the 2x estimate —
    // so even this tiny input trips the bug under Bounds Check. (This is
    // why the paper calls the inputs "very rare": the expansion must beat
    // the estimate, which needs dense non-ASCII or control characters.)
    assert!(convert(Mode::BoundsCheck, &[0xC3, 0xA9]).is_err());

    // Malformed UTF-8 takes the `goto bail` path everywhere.
    for mode in [Mode::Standard, Mode::BoundsCheck, Mode::FailureOblivious] {
        assert_eq!(convert(mode, &[0xC0]).unwrap(), None, "mode {mode:?}");
    }

    // The attack name: Bounds Check terminates, FO truncates and returns.
    let attack = failure_oblivious::servers::mutt::attack_folder_name(40);
    assert!(convert(Mode::BoundsCheck, &attack).is_err());
    let out = convert(Mode::FailureOblivious, &attack).unwrap().unwrap();
    assert!(!out.is_empty(), "FO conversion returns a truncated name");
}

#[test]
fn error_log_records_full_context() {
    let src = r#"
        int poke(int i) {
            int xs[4];
            xs[0] = 1;
            return xs[i];
        }
    "#;
    let mut m =
        Machine::from_source(src, MachineConfig::with_mode(Mode::FailureOblivious)).unwrap();
    m.call("poke", &[100]).unwrap();
    let log = m.space().error_log();
    assert_eq!(log.total(), 1);
    let rec = &log.records()[0];
    assert_eq!(rec.kind, ErrorKind::InvalidRead);
    assert!(rec.referent.is_some(), "provenance must be known");
    assert_eq!(rec.offset, Some(400), "intended offset = 100 * 4");
}

#[test]
fn dangling_pointer_reads_are_intercepted() {
    let src = r#"
        int main() {
            int *p = (int *) malloc(16);
            p[0] = 77;
            free(p);
            return p[0];
        }
    "#;
    // Bounds Check terminates.
    assert!(run(src, Mode::BoundsCheck).is_err());
    // Failure-oblivious manufactures a value and continues.
    let v = run(src, Mode::FailureOblivious).unwrap();
    assert_eq!(v, 0, "first manufactured value");
}

#[test]
fn double_free_handling_across_modes() {
    let src = r#"
        int main() {
            char *p = (char *) malloc(8);
            free(p);
            free(p);
            return 11;
        }
    "#;
    // Standard: allocator detects the double free (glibc abort).
    assert!(run(src, Mode::Standard).is_err());
    assert!(run(src, Mode::BoundsCheck).is_err());
    // FO: logged and discarded.
    assert_eq!(run(src, Mode::FailureOblivious).unwrap(), 11);
}

#[test]
fn negative_indexing_underflow() {
    let src = r#"
        int main() {
            int xs[4];
            int i;
            for (i = 0; i < 4; i++) xs[i] = 10;
            xs[-1] = 99;
            return xs[0] + xs[-2];
        }
    "#;
    assert!(run(src, Mode::BoundsCheck).is_err());
    // FO: the write at [-1] is discarded, the read at [-2] manufactures.
    assert_eq!(run(src, Mode::FailureOblivious).unwrap(), 10);
}

#[test]
fn boundless_variant_round_trips_out_of_bounds_data() {
    // §5.1: "instead of discarding invalid writes, the generated code
    // stores the values in a hash table indexed under the data unit
    // identifier and offset. Corresponding invalid reads return the
    // appropriate stored values. This variant eliminates size calculation
    // errors."
    let src = r#"
        int main() {
            int i;
            int *xs = (int *) malloc(4 * sizeof(int));
            for (i = 0; i < 16; i++) xs[i] = i * 3;
            int acc = 0;
            for (i = 0; i < 16; i++) acc += xs[i];
            return acc;
        }
    "#;
    let expect: i64 = (0..16).map(|i| i * 3).sum();
    assert_eq!(
        run(src, Mode::Boundless).unwrap(),
        expect,
        "boundless: as if sized right"
    );
    // Plain FO manufactures for the out-of-bounds reads instead.
    let fo = run(src, Mode::FailureOblivious).unwrap();
    assert_ne!(fo, expect);
}

#[test]
fn redirect_variant_wraps_into_the_unit() {
    let src = r#"
        int main() {
            char buf[4];
            buf[0] = 'a'; buf[1] = 'b'; buf[2] = 'c'; buf[3] = 'd';
            /* buf[5] redirects to offset 5 % 4 == 1 */
            return buf[5];
        }
    "#;
    assert_eq!(run(src, Mode::Redirect).unwrap(), b'b' as i64);
}

#[test]
fn run_error_display_is_informative() {
    let e = run("int main() { return 1 / 0; }", Mode::Standard).unwrap_err();
    let msg = e.to_string();
    assert!(msg.contains("division by zero"), "{msg}");
    let RunError::Fault(f) = e else { panic!() };
    assert!(f.is_crash());
}

#[test]
fn deep_guest_programs_execute_correctly() {
    // A small interpreter stress: sieve of Eratosthenes + checksum, to
    // shake out codegen/VM interactions at moderate scale.
    let src = r#"
        int sieve() {
            char composite[1000];
            int i; int j; int count = 0;
            for (i = 0; i < 1000; i++) composite[i] = 0;
            for (i = 2; i < 1000; i++) {
                if (!composite[i]) {
                    count++;
                    for (j = i * 2; j < 1000; j += i) composite[j] = 1;
                }
            }
            return count;
        }
    "#;
    for mode in Mode::ALL {
        let mut m = Machine::from_source(src, MachineConfig::with_mode(mode)).unwrap();
        assert_eq!(m.call("sieve", &[]).unwrap(), 168, "mode {mode:?}");
    }
}

#[test]
fn all_five_modes_agree_on_correct_programs() {
    let src = r#"
        long fib(long n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
        long gcd(long a, long b) { while (b) { long t = a % b; a = b; b = t; } return a; }
        long main() {
            char buf[32];
            strcpy(buf, "checksum");
            long h = 0;
            int i;
            for (i = 0; buf[i]; i++) h = h * 31 + buf[i];
            return fib(15) + gcd(1071, 462) + h % 1000;
        }
    "#;
    let expected = run(src, Mode::Standard).unwrap();
    for mode in Mode::ALL {
        assert_eq!(run(src, mode).unwrap(), expected, "mode {mode:?}");
    }
}

/// The docs name only what exists: every backticked `*.rs` path in
/// `README.md` and `bench/README.md` ends some file of the source tree,
/// and the last segment of every backticked `a::b` item is an identifier
/// in it (a prefix of one when `…` abbreviates the rest). It reads the
/// tree and the two files, and writes nothing.
#[test]
fn the_readmes_name_only_what_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut files, mut texts) = (Vec::new(), String::new());
    let tree = "crates src tests examples bench/src bench/tests";
    let mut dirs: Vec<PathBuf> = tree.split(' ').map(|dir| root.join(dir)).collect();
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                texts += &fs::read_to_string(&path).unwrap();
                files.push(path);
            }
        }
    }
    let words: HashSet<&str> = texts.split(word_end).collect();
    for doc in ["README.md", "bench/README.md"] {
        let text = fs::read_to_string(root.join(doc)).unwrap();
        let mut fenced = false;
        let prose: Vec<&str> = text
            .lines()
            .filter(|line| {
                fenced ^= line.starts_with("```");
                !fenced && !line.starts_with("```")
            })
            .collect();
        for quoted in prose.join("\n").split('`').skip(1).step_by(2) {
            let found = if quoted.ends_with(".rs") {
                files.iter().any(|file| file.ends_with(quoted))
            } else if let Some((_, last)) = quoted.rsplit_once("::") {
                let name = &last[..last.find(word_end).unwrap_or(last.len())];
                match last[name.len()..].starts_with('…') {
                    true => words.iter().any(|w| w.starts_with(name)),
                    false => words.contains(name),
                }
            } else {
                true
            };
            assert!(found, "{doc} names `{quoted}`, which the tree lacks");
        }
    }
}

fn word_end(c: char) -> bool {
    !(c.is_alphanumeric() || c == '_')
}
