//! A Thompson-NFA regular-expression engine — the function of the
//! BlueField-2 RXP accelerator (paper §1, §3). Supports the operator set
//! typical of in-network pattern matching: literals, `.`, classes
//! (`[a-z]`, `[^...]`, `\d \w \s`), repetition (`* + ? {m,n}`),
//! alternation, grouping, and anchors (`^`, `$`).
//!
//! The implementation is a classic Pike VM: patterns compile to a small
//! instruction program, matching runs in `O(len(text) · len(program))`
//! with no backtracking — the same worst-case-linear property hardware
//! regex engines provide.
//!
//! ```
//! use dpdpu_kernels::regex::Regex;
//!
//! let re = Regex::new(r"er(ror|r)\d+").unwrap();
//! assert!(re.find("disk error42 detected").is_some());
//! assert_eq!(re.find("xx err7 yy"), Some((3, 7)));
//! ```

mod parser;
mod vm;

pub use parser::ParseError;

use parser::parse;
use vm::{compile, Program};

/// A compiled regular expression.
pub struct Regex {
    program: Program,
}

impl Regex {
    /// Parses and compiles `pattern`.
    pub fn new(pattern: &str) -> Result<Self, ParseError> {
        let ast = parse(pattern)?;
        Ok(Regex {
            program: compile(&ast),
        })
    }

    /// Leftmost-longest match as a byte span.
    pub fn find(&self, text: &str) -> Option<(usize, usize)> {
        self.program.search(text.as_bytes())
    }

    /// Counts non-overlapping leftmost matches (empty matches advance by
    /// one byte to guarantee progress).
    pub fn count_matches(&self, text: &str) -> usize {
        let bytes = text.as_bytes();
        let mut count = 0;
        let mut pos = 0;
        while pos <= bytes.len() {
            match self.program.search_at(bytes, pos) {
                Some((_, end)) => {
                    count += 1;
                    pos = if end > pos { end } else { pos + 1 };
                }
                None => break,
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_match() {
        let re = Regex::new("abc").unwrap();
        assert!(re.find("xxabcxx").is_some());
        assert!(re.find("abx").is_none());
        assert_eq!(re.find("xxabcxx"), Some((2, 5)));
    }

    #[test]
    fn alternation_and_groups() {
        let re = Regex::new("(cat|dog)s?").unwrap();
        assert!(re.find("hotdogs").is_some());
        assert!(re.find("cat").is_some());
        assert!(re.find("cow").is_none());
        assert_eq!(re.find("two dogs"), Some((4, 8)));
    }

    #[test]
    fn star_is_greedy_leftmost_longest() {
        let re = Regex::new("ab*").unwrap();
        assert_eq!(re.find("xabbbby"), Some((1, 6)));
        assert_eq!(re.find("xay"), Some((1, 2)));
    }

    #[test]
    fn plus_requires_one() {
        let re = Regex::new("ab+c").unwrap();
        assert!(re.find("abbc").is_some());
        assert!(re.find("ac").is_none());
    }

    #[test]
    fn dot_matches_any_but_newline() {
        let re = Regex::new("a.c").unwrap();
        assert!(re.find("abc").is_some());
        assert!(re.find("a-c").is_some());
        assert!(re.find("a\nc").is_none());
    }

    #[test]
    fn classes_and_escapes() {
        let re = Regex::new(r"[a-f0-9]+").unwrap();
        assert_eq!(re.find("zz deadbeef zz"), Some((3, 11)));
        let re = Regex::new(r"\d{3}-\d{4}").unwrap();
        assert!(re.find("call 555-1234 now").is_some());
        assert!(re.find("call 55-1234 now").is_none());
        let re = Regex::new(r"[^aeiou]+").unwrap();
        assert_eq!(re.find("aeioxyz"), Some((4, 7)));
    }

    #[test]
    fn bounded_repetition() {
        let re = Regex::new("a{2,3}b").unwrap();
        assert!(re.find("ab").is_none());
        assert!(re.find("aab").is_some());
        assert!(re.find("aaab").is_some());
        let re = Regex::new("x{3}").unwrap();
        assert!(re.find("wxxxw").is_some());
        assert!(re.find("wxxw").is_none());
    }

    #[test]
    fn anchors() {
        let re = Regex::new("^get").unwrap();
        assert!(re.find("get /index").is_some());
        assert!(re.find("forget").is_none());
        let re = Regex::new(r"\.log$").unwrap();
        assert!(re.find("sys.log").is_some());
        assert!(re.find("sys.log.1").is_none());
    }

    #[test]
    fn count_non_overlapping() {
        let re = Regex::new("aa").unwrap();
        assert_eq!(re.count_matches("aaaa"), 2);
        let re = Regex::new(r"\d+").unwrap();
        assert_eq!(re.count_matches("a1 b22 c333"), 3);
    }

    #[test]
    fn empty_pattern_matches_empty() {
        let re = Regex::new("").unwrap();
        assert!(re.find("").is_some());
        assert!(re.find("anything").is_some());
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Regex::new("a(b").is_err());
        assert!(Regex::new("a)").is_err());
        assert!(Regex::new("[a-").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new(r"a\").is_err());
        assert!(Regex::new("a{5,2}").is_err());
    }

    #[test]
    fn empty_alternation_branch() {
        let re = Regex::new("ab|").unwrap();
        assert!(re.find("xx").is_some(), "empty branch matches everywhere");
        assert_eq!(Regex::new("a|b|").unwrap().find("zzz"), Some((0, 0)));
    }

    #[test]
    fn quantified_groups() {
        let re = Regex::new("(ab)*c").unwrap();
        assert!(re.find("c").is_some());
        assert!(re.find("ababc").is_some());
        assert!(re.find("abab").is_none(), "no trailing c anywhere");
        // Unanchored: the bare 'c' at index 3 matches with zero reps.
        assert_eq!(re.find("abac"), Some((3, 4)));
        let re = Regex::new("(a|b){2}").unwrap();
        assert!(re.find("xbay").is_some());
        assert!(re.find("a-b").is_none());
        let re = Regex::new("(x(y|z)+)?w").unwrap();
        assert!(re.find("xyzw").is_some());
        assert!(re.find("w").is_some());
        assert!(re.find("x").is_none());
    }

    #[test]
    fn escaped_metacharacters() {
        let re = Regex::new(r"\(\d+\)").unwrap();
        assert_eq!(re.find("f(42)"), Some((1, 5)));
        let re = Regex::new(r"a\.b").unwrap();
        assert!(re.find("a.b").is_some());
        assert!(re.find("axb").is_none());
        let re = Regex::new(r"c:\\dir").unwrap();
        assert!(re.find(r"c:\dir").is_some());
    }

    #[test]
    fn leftmost_longest_among_alternatives() {
        // Leftmost position wins even when a later match would be longer.
        let re = Regex::new("aaa|b+").unwrap();
        assert_eq!(re.find("aaabbbb"), Some((0, 3)));
        // At the same position the greedy alternative extends.
        let re = Regex::new("ab|abc").unwrap();
        assert_eq!(re.find("abc"), Some((0, 2)), "first alternative wins ties");
    }

    #[test]
    fn pathological_pattern_is_linear() {
        // (a+)+b-style patterns explode backtrackers; a Pike VM must not.
        let re = Regex::new("(a+)+b").unwrap();
        let text = "a".repeat(2_000);
        assert!(re.find(&text).is_none());
    }

    #[test]
    fn sql_like_log_scan() {
        let re = Regex::new(r"(ERROR|WARN)( [a-z_]+=\w+)*").unwrap();
        let log = "ts=1 INFO ok\nts=2 ERROR code=e42 dev=nvme0\nts=3 WARN tmp=hi";
        assert_eq!(re.count_matches(log), 2);
    }
}
