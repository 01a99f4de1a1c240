//! String interning for the detector's high-cardinality repeated strings.
//!
//! Every visit record repeats the same handful of strings thousands of
//! times across a campaign — partner names, bidder codes, slot codes, size
//! strings, channel labels, domains. Storing them as owned `String`s makes
//! the per-request hot path allocation-bound and the dataset
//! cache-hostile. [`Interner`] stores each distinct string once and hands
//! out copyable 4-byte [`Symbol`] handles; records store symbols, and the
//! analysis layer resolves them against the campaign-wide interner carried
//! by the dataset.
//!
//! ## Storage
//!
//! Interned text lives back to back in one `String`, with a `(start,
//! end)` span per symbol, and the lookup table is an open-addressing array
//! of symbol indexes beside a per-symbol hash. Interning a new string
//! appends to the buffer instead of allocating it, a lookup compares the
//! stored hash before touching any text, and the text it does compare is
//! contiguous rather than one heap object per string. Symbols number in
//! first-intern order, exactly as before; the hash only picks table
//! slots, so it cannot influence any output.
//!
//! ## Concurrency model
//!
//! The interner is deliberately *not* shared across threads. Each crawl
//! worker owns a private interner; the campaign collector re-interns every
//! record into the campaign interner in deterministic (day, site) order,
//! so symbol numbering is identical regardless of scheduling or
//! parallelism (see `hb-crawler`'s campaign module).

use hb_simnet::hash::FxHasher;
use std::fmt;
use std::hash::Hasher;

/// A handle to an interned string. `Symbol::EMPTY` (the default) always
/// resolves to `""` in every interner.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Symbol(u32);

impl Symbol {
    /// The empty string, pre-interned at index 0 by [`Interner::new`].
    pub const EMPTY: Symbol = Symbol(0);

    /// The raw index (stable within one interner).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// True for the pre-interned empty string.
    pub fn is_empty(self) -> bool {
        self == Symbol::EMPTY
    }

    /// Rebuild a symbol from its raw index — wire decoding only. Kept
    /// crate-private so external code cannot forge symbols that bypass an
    /// interner; the wire decoder bounds-checks every index against the
    /// companion interner before constructing.
    pub(crate) const fn from_raw(raw: u32) -> Symbol {
        Symbol(raw)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.0)
    }
}

/// A string interner: each distinct string is stored once, and
/// [`Interner::intern`] is idempotent — the same text always yields the
/// same [`Symbol`].
#[derive(Clone)]
pub struct Interner {
    /// Every interned string, back to back, in symbol order.
    text: String,
    /// `(start, end)` of each symbol's text in `text`.
    spans: Vec<(u32, u32)>,
    /// Hash of each symbol's text (table placement and quick rejects).
    hashes: Vec<u64>,
    /// Open-addressing table: `0` is empty, `i + 1` is symbol `i`. Its
    /// length is a power of two at least twice the symbol count.
    table: Vec<u32>,
}

impl Default for Interner {
    fn default() -> Interner {
        Interner::new()
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter().map(|(_, s)| s)).finish()
    }
}

/// Table length of a fresh interner.
const INITIAL_TABLE: usize = 16;

fn hash_text(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

impl Interner {
    /// New interner with `""` pre-interned as [`Symbol::EMPTY`].
    pub fn new() -> Interner {
        let mut interner = Interner {
            text: String::new(),
            spans: Vec::new(),
            hashes: Vec::new(),
            table: vec![0; INITIAL_TABLE],
        };
        interner.intern("");
        interner
    }

    /// The table slot a hash probes first: the hash's top bits (the
    /// multiplicative hash mixes those best).
    fn home(&self, hash: u64) -> usize {
        let bits = self.table.len().trailing_zeros();
        (hash >> (64 - bits)) as usize
    }

    /// Intern `s`, returning its symbol (appending it on first sight).
    pub fn intern(&mut self, s: &str) -> Symbol {
        let hash = hash_text(s);
        let mask = self.table.len() - 1;
        let mut slot = self.home(hash);
        loop {
            match self.table[slot] {
                0 => break,
                entry => {
                    let i = (entry - 1) as usize;
                    if self.hashes[i] == hash && self.text_of(i) == s {
                        return Symbol(i as u32);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
        let sym = Symbol(self.spans.len() as u32);
        let start = self.text.len();
        self.text.push_str(s);
        let offset = |n: usize| u32::try_from(n).expect("interned text exceeds 4 GiB");
        self.spans.push((offset(start), offset(self.text.len())));
        self.hashes.push(hash);
        self.table[slot] = sym.0 + 1;
        if self.spans.len() * 2 > self.table.len() {
            self.grow();
        }
        sym
    }

    /// Double the table and re-place every symbol by its stored hash.
    fn grow(&mut self) {
        self.table = vec![0; self.table.len() * 2];
        let mask = self.table.len() - 1;
        for (i, &hash) in self.hashes.iter().enumerate() {
            let mut slot = self.home(hash);
            while self.table[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = i as u32 + 1;
        }
    }

    fn text_of(&self, i: usize) -> &str {
        let (start, end) = self.spans[i];
        &self.text[start as usize..end as usize]
    }

    /// Resolve a symbol to its text.
    ///
    /// # Panics
    /// Panics if `sym` was produced by a different interner with more
    /// entries than this one.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.text_of(sym.0 as usize)
    }

    /// Resolve without panicking.
    pub fn try_resolve(&self, sym: Symbol) -> Option<&str> {
        let i = sym.0 as usize;
        (i < self.spans.len()).then(|| self.text_of(i))
    }

    /// Number of distinct strings (including the pre-interned `""`).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Always false: `""` is pre-interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterate `(symbol, text)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        (0..self.spans.len()).map(|i| (Symbol(i as u32), self.text_of(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_preinterned() {
        let mut i = Interner::new();
        assert_eq!(i.intern(""), Symbol::EMPTY);
        assert_eq!(i.resolve(Symbol::EMPTY), "");
        assert_eq!(Symbol::default(), Symbol::EMPTY);
        assert!(Symbol::EMPTY.is_empty());
    }

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("appnexus");
        let b = i.intern("rubicon");
        assert_ne!(a, b);
        assert_eq!(i.intern("appnexus"), a);
        assert_eq!(i.resolve(a), "appnexus");
        assert_eq!(i.resolve(b), "rubicon");
        assert_eq!(i.len(), 3, "two strings plus the empty string");
    }

    #[test]
    fn iteration_order_is_interning_order() {
        let mut i = Interner::new();
        i.intern("b");
        i.intern("a");
        let texts: Vec<&str> = i.iter().map(|(_, s)| s).collect();
        assert_eq!(texts, vec!["", "b", "a"]);
    }

    #[test]
    fn many_strings_and_non_ascii_text() {
        let mut i = Interner::new();
        let words: Vec<String> = (0..5_000).map(|n| format!("ü{n}-ß")).collect();
        let syms: Vec<Symbol> = words.iter().map(|w| i.intern(w)).collect();
        for (w, sym) in words.iter().zip(&syms) {
            assert_eq!(i.resolve(*sym), w);
            assert_eq!(i.intern(w), *sym);
        }
        assert_eq!(i.len(), words.len() + 1);
        // A clone resolves alike and then diverges independently.
        let mut copy = i.clone();
        assert_eq!(copy.intern("fresh"), Symbol(i.len() as u32));
        assert_eq!(i.try_resolve(Symbol(i.len() as u32)), None);
        assert_eq!(copy.resolve(syms[17]), words[17]);
    }

    #[test]
    fn try_resolve_bounds() {
        let i = Interner::new();
        assert_eq!(i.try_resolve(Symbol(5)), None);
        assert_eq!(i.try_resolve(Symbol::EMPTY), Some(""));
    }
}
