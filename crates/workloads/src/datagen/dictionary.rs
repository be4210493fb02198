//! Random text over a 1000-word dictionary.
//!
//! The paper: *"The working data sets for WordCount and Sort are randomly
//! generated text, drawn from a UNIX dictionary that contains 1000
//! words."* We synthesize a deterministic 1000-word dictionary with a
//! UNIX-`words`-like length distribution and draw text from it. The
//! dictionary is generated once per process and shared.

use std::sync::LazyLock;

use ipso_sim::SimRng;

/// Number of words in the generated dictionary.
pub const DICTIONARY_SIZE: usize = 1000;

const SYLLABLES: &[&str] = &[
    "an", "ber", "cal", "dor", "el", "fin", "gra", "hol", "in", "jun", "kel", "lor", "mer", "nor",
    "ol", "per", "qua", "rin", "sol", "tur", "ul", "ver", "win", "xen", "yor", "zan",
];

/// The generated dictionary, built on first use.
static DICTIONARY: LazyLock<Vec<String>> = LazyLock::new(generate_dictionary);

/// The deterministic 1000-word dictionary. Words are distinct, lowercase
/// and between 2 and 12 characters, resembling `/usr/share/dict/words`
/// entries. Returns a copy of the shared dictionary.
pub fn unix_dictionary() -> Vec<String> {
    DICTIONARY.clone()
}

/// The shared dictionary, in generation order.
pub(crate) fn dictionary_words() -> &'static [String] {
    &DICTIONARY
}

fn generate_dictionary() -> Vec<String> {
    let mut words = Vec::with_capacity(DICTIONARY_SIZE);
    let mut i = 0usize;
    while words.len() < DICTIONARY_SIZE {
        // Compose 1–3 syllables deterministically from the index.
        let s1 = SYLLABLES[i % SYLLABLES.len()];
        let s2 = SYLLABLES[(i / SYLLABLES.len()) % SYLLABLES.len()];
        let s3 = SYLLABLES[(i / (SYLLABLES.len() * SYLLABLES.len())) % SYLLABLES.len()];
        let word = match i % 3 {
            0 => s1.to_string(),
            1 => format!("{s1}{s2}"),
            _ => format!("{s1}{s2}{s3}"),
        };
        if !words.contains(&word) {
            words.push(word);
        }
        i += 1;
    }
    words
}

/// Generates `lines` lines of `words_per_line` random dictionary words.
pub fn random_lines(lines: usize, words_per_line: usize, rng: &mut SimRng) -> Vec<String> {
    let dict = dictionary_words();
    (0..lines)
        .map(|_| {
            let mut line = String::new();
            for w in 0..words_per_line {
                if w > 0 {
                    line.push(' ');
                }
                line.push_str(&dict[rng.index(dict.len())]);
            }
            line
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dictionary_has_exactly_1000_distinct_words() {
        let d = unix_dictionary();
        assert_eq!(d.len(), DICTIONARY_SIZE);
        let unique: std::collections::HashSet<&String> = d.iter().collect();
        assert_eq!(unique.len(), DICTIONARY_SIZE);
    }

    #[test]
    fn words_look_like_dictionary_entries() {
        for w in unix_dictionary() {
            assert!((2..=12).contains(&w.len()), "bad word {w:?}");
            assert!(w.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn dictionary_is_deterministic() {
        assert_eq!(generate_dictionary(), unix_dictionary());
    }

    #[test]
    fn lines_draw_from_the_dictionary() {
        let dict: std::collections::HashSet<String> = unix_dictionary().into_iter().collect();
        let mut rng = SimRng::seed_from(1);
        let lines = random_lines(50, 8, &mut rng);
        assert_eq!(lines.len(), 50);
        for line in &lines {
            let words: Vec<&str> = line.split(' ').collect();
            assert_eq!(words.len(), 8);
            for w in words {
                assert!(dict.contains(w), "unknown word {w:?}");
            }
        }
    }

    #[test]
    fn lines_are_seeded() {
        let mut a = SimRng::seed_from(9);
        let mut b = SimRng::seed_from(9);
        assert_eq!(random_lines(10, 5, &mut a), random_lines(10, 5, &mut b));
    }
}
