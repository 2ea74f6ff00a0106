//! String-to-set tokenization.
//!
//! The paper maps strings into sets by tokenizing them into words or q-grams
//! and treats the result as a *set* (duplicates collapsed). Cleaning —
//! lower-casing and punctuation removal — happens inside the algorithms
//! ("we did not clean the records before running our algorithms... We did
//! the cleaning inside our algorithms"), so the tokenizers here clean as
//! they tokenize.

use std::collections::HashMap;

/// How duplicate tokens within one string are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DedupMode {
    /// Keep the first occurrence only: the string becomes a true set.
    #[default]
    Collapse,
    /// Make duplicates distinct by appending an occurrence ordinal
    /// (`the`, `the#2`, `the#3`), preserving multiset semantics.
    Number,
}

/// A tokenizer turns a string into a list of distinct tokens.
pub trait Tokenizer {
    /// Tokenize `text` into distinct tokens (per the [`DedupMode`]).
    fn tokenize(&self, text: &str) -> Vec<String>;
}

/// Word tokenizer: lower-cases, treats every non-alphanumeric character as a
/// separator, and deduplicates.
#[derive(Debug, Clone, Default)]
pub struct WordTokenizer {
    /// Duplicate handling.
    pub dedup: DedupMode,
}

impl WordTokenizer {
    /// A word tokenizer with collapse-duplicates semantics.
    pub fn new() -> Self {
        Self::default()
    }

    /// A word tokenizer that numbers duplicate occurrences.
    pub fn numbering() -> Self {
        WordTokenizer {
            dedup: DedupMode::Number,
        }
    }
}

/// Distinct-token count past which [`Dedup`] switches from a linear scan of
/// the tokens kept so far to a hash index. A title+authors record stays
/// well below it.
const LINEAR_SCAN_MAX: usize = 32;

/// First-occurrence deduplication per [`DedupMode`] that allocates only for
/// the tokens it keeps: candidates arrive as `&str` from a reused buffer.
struct Dedup {
    mode: DedupMode,
    out: Vec<String>,
    /// One entry per distinct token: its first occurrence's index in `out`
    /// and how often it has occurred.
    distinct: Vec<(usize, u32)>,
    /// Token -> index in `distinct`, built once `distinct` outgrows
    /// [`LINEAR_SCAN_MAX`]; empty until then.
    index: HashMap<String, usize>,
}

impl Dedup {
    fn new(mode: DedupMode) -> Self {
        Dedup {
            mode,
            out: Vec::new(),
            distinct: Vec::new(),
            index: HashMap::new(),
        }
    }

    fn push(&mut self, tok: &str) {
        let found = if self.index.is_empty() {
            self.distinct.iter().position(|&(i, _)| self.out[i] == tok)
        } else {
            self.index.get(tok).copied()
        };
        if let Some(d) = found {
            let n = &mut self.distinct[d].1;
            *n += 1;
            if self.mode == DedupMode::Number {
                self.out.push(format!("{tok}#{n}"));
            }
            return;
        }
        self.distinct.push((self.out.len(), 1));
        self.out.push(tok.to_owned());
        if self.distinct.len() > LINEAR_SCAN_MAX {
            if self.index.is_empty() {
                for (d, &(i, _)) in self.distinct.iter().enumerate() {
                    self.index.insert(self.out[i].clone(), d);
                }
            } else {
                self.index.insert(tok.to_owned(), self.distinct.len() - 1);
            }
        }
    }
}

impl Tokenizer for WordTokenizer {
    fn tokenize(&self, text: &str) -> Vec<String> {
        let mut dedup = Dedup::new(self.dedup);
        let mut word = String::new();
        for raw in text.split(|c: char| !c.is_alphanumeric()) {
            if raw.is_empty() {
                continue;
            }
            word.clear();
            if raw.is_ascii() {
                word.push_str(raw);
                word.make_ascii_lowercase();
            } else {
                // `str::to_lowercase` is context-sensitive (a word-final
                // `Σ` becomes `ς`), so non-ASCII words keep it.
                word.push_str(&raw.to_lowercase());
            }
            dedup.push(&word);
        }
        dedup.out
    }
}

/// Q-gram tokenizer: sliding windows of `q` characters over the cleaned
/// string (lower-cased, runs of non-alphanumerics collapsed to one space),
/// padded with `q - 1` leading and trailing `#` characters so every original
/// character appears in exactly `q` grams.
#[derive(Debug, Clone)]
pub struct QGramTokenizer {
    /// Gram length (≥ 1).
    pub q: usize,
    /// Duplicate handling.
    pub dedup: DedupMode,
}

impl QGramTokenizer {
    /// A q-gram tokenizer with collapse-duplicates semantics.
    pub fn new(q: usize) -> Self {
        assert!(q >= 1, "q must be at least 1");
        QGramTokenizer {
            q,
            dedup: DedupMode::Collapse,
        }
    }
}

impl Tokenizer for QGramTokenizer {
    fn tokenize(&self, text: &str) -> Vec<String> {
        let mut cleaned = String::with_capacity(text.len() + 2 * (self.q - 1));
        for _ in 0..self.q - 1 {
            cleaned.push('#');
        }
        let mut last_sep = false;
        let mut has_content = false;
        for c in text.chars() {
            if c.is_alphanumeric() {
                cleaned.extend(c.to_lowercase());
                last_sep = false;
                has_content = true;
            } else if !last_sep && !cleaned.is_empty() {
                cleaned.push(' ');
                last_sep = true;
            }
        }
        if !has_content {
            return Vec::new();
        }
        while cleaned.ends_with(' ') {
            cleaned.pop();
        }
        for _ in 0..self.q - 1 {
            cleaned.push('#');
        }
        let chars: Vec<char> = cleaned.chars().collect();
        if chars.len() < self.q {
            return Vec::new();
        }
        let mut dedup = Dedup::new(self.dedup);
        let mut gram = String::new();
        for window in chars.windows(self.q) {
            gram.clear();
            gram.extend(window);
            dedup.push(&gram);
        }
        dedup.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_tokenizer_cleans_and_lowercases() {
        let t = WordTokenizer::new();
        assert_eq!(
            t.tokenize("I will call back."),
            vec!["i", "will", "call", "back"]
        );
        assert_eq!(t.tokenize("Smith, John   W."), vec!["smith", "john", "w"]);
        assert_eq!(t.tokenize(""), Vec::<String>::new());
        assert_eq!(t.tokenize("...!!!"), Vec::<String>::new());
    }

    #[test]
    fn word_tokenizer_collapses_duplicates() {
        let t = WordTokenizer::new();
        assert_eq!(t.tokenize("the cat the hat"), vec!["the", "cat", "hat"]);
    }

    #[test]
    fn word_tokenizer_numbers_duplicates() {
        let t = WordTokenizer::numbering();
        assert_eq!(
            t.tokenize("the cat the the"),
            vec!["the", "cat", "the#2", "the#3"]
        );
    }

    #[test]
    fn qgram_tokenizer_pads_and_slides() {
        let t = QGramTokenizer::new(2);
        let grams = t.tokenize("ab");
        assert_eq!(grams, vec!["#a", "ab", "b#"]);
    }

    #[test]
    fn qgram_tokenizer_handles_separators_and_case() {
        let t = QGramTokenizer::new(3);
        let grams = t.tokenize("A-b");
        // cleaned: "##a b##"
        assert!(grams.contains(&"##a".to_string()));
        assert!(grams.contains(&"a b".to_string()));
        assert!(grams.contains(&"b##".to_string()));
    }

    #[test]
    fn qgram_tokenizer_short_or_empty_input() {
        let t = QGramTokenizer::new(3);
        assert_eq!(t.tokenize(""), Vec::<String>::new());
        assert!(
            !t.tokenize("a").is_empty(),
            "padding makes one-char strings tokenizable"
        );
    }

    #[test]
    fn qgram_collapse_dedups() {
        let t = QGramTokenizer::new(1);
        assert_eq!(t.tokenize("aaa"), vec!["a"]);
    }

    /// Plain reference tokenizers: one `String` per raw token and a
    /// `HashMap<String, u32>` insert per token. The equivalence tests below
    /// hold the allocation-light versions to exactly this output.
    mod reference {
        use super::super::DedupMode;
        use std::collections::HashMap;

        fn dedup_tokens(raw: impl Iterator<Item = String>, mode: DedupMode) -> Vec<String> {
            let mut seen: HashMap<String, u32> = HashMap::new();
            let mut out = Vec::new();
            for tok in raw {
                let count = seen.entry(tok.clone()).or_insert(0);
                *count += 1;
                match (mode, *count) {
                    (_, 1) => out.push(tok),
                    (DedupMode::Collapse, _) => {}
                    (DedupMode::Number, n) => out.push(format!("{tok}#{n}")),
                }
            }
            out
        }

        pub fn words(text: &str, mode: DedupMode) -> Vec<String> {
            let raw = text
                .split(|c: char| !c.is_alphanumeric())
                .filter(|w| !w.is_empty())
                .map(str::to_lowercase);
            dedup_tokens(raw, mode)
        }

        pub fn grams(text: &str, q: usize, mode: DedupMode) -> Vec<String> {
            let mut cleaned = "#".repeat(q - 1);
            let mut last_sep = false;
            let mut has_content = false;
            for c in text.chars() {
                if c.is_alphanumeric() {
                    cleaned.extend(c.to_lowercase());
                    last_sep = false;
                    has_content = true;
                } else if !last_sep && !cleaned.is_empty() {
                    cleaned.push(' ');
                    last_sep = true;
                }
            }
            if !has_content {
                return Vec::new();
            }
            while cleaned.ends_with(' ') {
                cleaned.pop();
            }
            cleaned.push_str(&"#".repeat(q - 1));
            let chars: Vec<char> = cleaned.chars().collect();
            let raw = chars.windows(q).map(|w| w.iter().collect::<String>());
            dedup_tokens(raw, mode)
        }
    }

    /// Seeded random text over a small vocabulary, so tokens repeat heavily,
    /// mixed with non-ASCII words whose lower-casing is context-sensitive
    /// (`Σ` at a word end), changes length (`İ`) or is the identity (`ß`),
    /// digits, and runs of punctuation.
    fn random_text(rng: &mut rand::rngs::StdRng, words: usize) -> String {
        use rand::RngExt;
        const VOCAB: &str = "the The THE of Data data MapReduce join x1 2010 ΟΔΟΣ Σ ΣΑΣ \
            İstanbul İ straße STRASSE ß Ünïcödé ǅ K k ﬁle a b c set SET Set 42 é É";
        let vocab: Vec<&str> = VOCAB.split_whitespace().collect();
        const SEPS: &[&str] = &[
            " ", ", ", ".", "--", " (", ") ", "!?", "\t", "_", "  ;; ", "'",
        ];
        let mut text = String::new();
        for _ in 0..words {
            let word = if rng.random_bool(0.15) {
                // A fresh word, so long inputs outgrow the linear scan.
                format!("w{}", rng.random_range(0..200u32))
            } else {
                vocab[rng.random_range(0..vocab.len())].to_string()
            };
            text.push_str(&word);
            text.push_str(SEPS[rng.random_range(0..SEPS.len())]);
        }
        text
    }

    #[test]
    fn word_tokenizer_matches_reference_on_random_text() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5e7_5eed);
        let mut long_inputs = 0;
        for case in 0..2000 {
            let words = if case % 10 == 0 {
                40 + case % 160
            } else {
                case % 24
            };
            let text = random_text(&mut rng, words);
            for mode in [DedupMode::Collapse, DedupMode::Number] {
                let got = WordTokenizer { dedup: mode }.tokenize(&text);
                assert_eq!(got, reference::words(&text, mode), "{mode:?} on {text:?}");
                if got.len() > 2 * LINEAR_SCAN_MAX {
                    long_inputs += 1;
                }
            }
        }
        assert!(long_inputs > 0, "no input exercised the hash index");
    }

    #[test]
    fn word_tokenizer_lowercases_like_str_to_lowercase() {
        let t = WordTokenizer::new();
        assert_eq!(t.tokenize("ΟΔΟΣ Σ"), vec!["οδος", "σ"]);
        assert_eq!(t.tokenize("İ ß STRASSE"), vec!["i\u{307}", "ß", "strasse"]);
        // The Kelvin sign lower-cases to an ASCII `k`: the same token.
        assert_eq!(t.tokenize("\u{212A} K k"), vec!["k"]);
        assert_eq!(
            WordTokenizer::numbering().tokenize("\u{212A} K k"),
            vec!["k", "k#2", "k#3"]
        );
    }

    #[test]
    fn qgram_tokenizer_matches_reference() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for case in 0..300 {
            let text = random_text(&mut rng, case % 30);
            for q in [1, 2, 3] {
                for mode in [DedupMode::Collapse, DedupMode::Number] {
                    let t = QGramTokenizer { q, dedup: mode };
                    let got = t.tokenize(&text);
                    let expected = reference::grams(&text, q, mode);
                    assert_eq!(got, expected, "q={q} {mode:?} on {text:?}");
                }
            }
        }
    }
}
