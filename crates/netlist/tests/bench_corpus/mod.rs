//! A BENCH fixture over every gate kind the reader accepts, and its damaged
//! copies: every proper prefix, and every byte replaced by each byte of a
//! small alphabet of BENCH syntax. `bench_malformed.rs` runs them through
//! the reader and the engine's API tests through the whole pipeline.

/// NOT, BUFF, two- and three-input AND/OR, NAND, NOR, XOR and MUX, with one
/// gate (`m`) declared before a signal it reads.
pub const FIXTURE: &str = "\
# kinds
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(m)
OUTPUT(x)
n = NOT(a)
f = BUFF(b)
m = MUX(x, a, c)
d = AND(a, b)
t = AND(a, f, c)
o = OR(n, c)
p = OR(d, t, c)
q = NAND(t, o)
r = NOR(p, q)
x = XOR(r, n)
";

const ALPHABET: &[u8] = b"(),=\n#0AN ";

/// Every damaged copy of [`FIXTURE`] as `(what was damaged, text)`.
pub fn damaged() -> impl Iterator<Item = (String, String)> {
    let bytes = FIXTURE.as_bytes();
    let prefixes =
        (0..bytes.len()).map(|cut| (format!("{cut}-byte prefix"), FIXTURE[..cut].to_string()));
    let replaced = (0..bytes.len()).flat_map(move |pos| {
        ALPHABET
            .iter()
            .filter(move |&&byte| byte != bytes[pos])
            .map(move |&byte| {
                let mut text = bytes.to_vec();
                text[pos] = byte;
                let text = String::from_utf8(text).expect("the fixture and alphabet are ASCII");
                (format!("byte {pos} set to {:?}", byte as char), text)
            })
    });
    prefixes.chain(replaced)
}
