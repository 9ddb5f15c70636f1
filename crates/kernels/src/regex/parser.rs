//! Pattern parser: recursive descent to an AST.

/// Parse errors with byte positions into the pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub(crate) message: String,
    /// Byte offset in the pattern.
    pub(crate) position: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "regex parse error at {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// A set of byte values (character class).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct ByteClass {
    /// 256-bit membership bitmap.
    pub(crate) bits: [u64; 4],
}

impl ByteClass {
    pub(super) fn empty() -> Self {
        ByteClass { bits: [0; 4] }
    }

    pub(super) fn insert(&mut self, b: u8) {
        self.bits[(b >> 6) as usize] |= 1u64 << (b & 63);
    }

    pub(super) fn insert_range(&mut self, lo: u8, hi: u8) {
        for b in lo..=hi {
            self.insert(b);
        }
    }

    pub(super) fn contains(&self, b: u8) -> bool {
        self.bits[(b >> 6) as usize] & (1u64 << (b & 63)) != 0
    }

    pub(super) fn negate(&mut self) {
        for w in self.bits.iter_mut() {
            *w = !*w;
        }
    }

    fn single(b: u8) -> Self {
        let mut c = Self::empty();
        c.insert(b);
        c
    }

    /// `.`: any byte except `\n`.
    fn dot() -> Self {
        let mut c = Self::empty();
        c.insert_range(0, 255);
        let mut nl = Self::single(b'\n');
        nl.negate();
        for i in 0..4 {
            c.bits[i] &= nl.bits[i];
        }
        c
    }

    fn digits() -> Self {
        let mut c = Self::empty();
        c.insert_range(b'0', b'9');
        c
    }

    fn word() -> Self {
        let mut c = Self::digits();
        c.insert_range(b'a', b'z');
        c.insert_range(b'A', b'Z');
        c.insert(b'_');
        c
    }

    fn space() -> Self {
        let mut c = Self::empty();
        for b in [b' ', b'\t', b'\n', b'\r', 0x0B, 0x0C] {
            c.insert(b);
        }
        c
    }
}

/// Regex AST.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) enum Ast {
    /// Matches the empty string.
    Empty,
    /// One byte from a class.
    Class(ByteClass),
    /// Concatenation.
    Concat(Vec<Ast>),
    /// Alternation.
    Alternate(Vec<Ast>),
    /// Repetition `{min, max}` (max `None` = unbounded), greedy.
    Repeat {
        node: Box<Ast>,
        min: u32,
        max: Option<u32>,
    },
    /// `^` start-of-text anchor.
    StartAnchor,
    /// `$` end-of-text anchor.
    EndAnchor,
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

/// Parses a pattern into an [`Ast`].
pub(super) fn parse(pattern: &str) -> Result<Ast, ParseError> {
    let mut p = Parser {
        input: pattern.as_bytes(),
        pos: 0,
    };
    let ast = p.alternate()?;
    if p.pos != p.input.len() {
        return Err(p.error("unexpected character"));
    }
    Ok(ast)
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            position: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn alternate(&mut self) -> Result<Ast, ParseError> {
        let mut branches = vec![self.concat()?];
        while self.peek() == Some(b'|') {
            self.bump();
            branches.push(self.concat()?);
        }
        Ok(if branches.len() == 1 {
            branches.pop().expect("one branch")
        } else {
            Ast::Alternate(branches)
        })
    }

    fn concat(&mut self) -> Result<Ast, ParseError> {
        let mut parts = Vec::new();
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' {
                break;
            }
            parts.push(self.repeat()?);
        }
        Ok(match parts.len() {
            0 => Ast::Empty,
            1 => parts.pop().expect("one part"),
            _ => Ast::Concat(parts),
        })
    }

    fn repeat(&mut self) -> Result<Ast, ParseError> {
        let atom = self.atom()?;
        let (min, max) = match self.peek() {
            Some(b'*') => {
                self.bump();
                (0, None)
            }
            Some(b'+') => {
                self.bump();
                (1, None)
            }
            Some(b'?') => {
                self.bump();
                (0, Some(1))
            }
            Some(b'{') => {
                self.bump();
                let (min, max) = self.counted()?;
                (min, max)
            }
            _ => return Ok(atom),
        };
        if matches!(atom, Ast::StartAnchor | Ast::EndAnchor) {
            return Err(self.error("cannot repeat an anchor"));
        }
        Ok(Ast::Repeat {
            node: Box::new(atom),
            min,
            max,
        })
    }

    fn counted(&mut self) -> Result<(u32, Option<u32>), ParseError> {
        let min = self.number()?;
        match self.bump() {
            Some(b'}') => Ok((min, Some(min))),
            Some(b',') => {
                if self.peek() == Some(b'}') {
                    self.bump();
                    return Ok((min, None));
                }
                let max = self.number()?;
                if self.bump() != Some(b'}') {
                    return Err(self.error("expected '}'"));
                }
                if max < min {
                    return Err(self.error("repetition max below min"));
                }
                Ok((min, Some(max)))
            }
            _ => Err(self.error("expected '}' or ','")),
        }
    }

    fn number(&mut self) -> Result<u32, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.bump();
        }
        if self.pos == start {
            return Err(self.error("expected a number"));
        }
        std::str::from_utf8(&self.input[start..self.pos])
            .expect("digits are utf8")
            .parse()
            .map_err(|_| self.error("repetition count too large"))
    }

    fn atom(&mut self) -> Result<Ast, ParseError> {
        match self.bump() {
            None => Err(self.error("unexpected end of pattern")),
            Some(b'(') => {
                let inner = self.alternate()?;
                if self.bump() != Some(b')') {
                    return Err(self.error("unclosed group"));
                }
                Ok(inner)
            }
            Some(b'[') => self.class(),
            Some(b'.') => Ok(Ast::Class(ByteClass::dot())),
            Some(b'^') => Ok(Ast::StartAnchor),
            Some(b'$') => Ok(Ast::EndAnchor),
            Some(b'\\') => self.escape(),
            Some(b @ (b'*' | b'+' | b'?')) => {
                self.pos -= 1;
                Err(self.error(&format!("dangling repetition '{}'", b as char)))
            }
            Some(b')') => {
                self.pos -= 1;
                Err(self.error("unmatched ')'"))
            }
            Some(b) => Ok(Ast::Class(ByteClass::single(b))),
        }
    }

    fn escape(&mut self) -> Result<Ast, ParseError> {
        match self.bump() {
            None => Err(self.error("trailing backslash")),
            Some(b'd') => Ok(Ast::Class(ByteClass::digits())),
            Some(b'D') => {
                let mut c = ByteClass::digits();
                c.negate();
                Ok(Ast::Class(c))
            }
            Some(b'w') => Ok(Ast::Class(ByteClass::word())),
            Some(b'W') => {
                let mut c = ByteClass::word();
                c.negate();
                Ok(Ast::Class(c))
            }
            Some(b's') => Ok(Ast::Class(ByteClass::space())),
            Some(b'S') => {
                let mut c = ByteClass::space();
                c.negate();
                Ok(Ast::Class(c))
            }
            Some(b'n') => Ok(Ast::Class(ByteClass::single(b'\n'))),
            Some(b't') => Ok(Ast::Class(ByteClass::single(b'\t'))),
            Some(b'r') => Ok(Ast::Class(ByteClass::single(b'\r'))),
            // Any punctuation escapes to itself.
            Some(b) if !b.is_ascii_alphanumeric() => Ok(Ast::Class(ByteClass::single(b))),
            Some(b) => Err(self.error(&format!("unknown escape '\\{}'", b as char))),
        }
    }

    fn class(&mut self) -> Result<Ast, ParseError> {
        let mut set = ByteClass::empty();
        let negate = if self.peek() == Some(b'^') {
            self.bump();
            true
        } else {
            false
        };
        let mut first = true;
        loop {
            let b = match self.bump() {
                None => return Err(self.error("unclosed character class")),
                Some(b']') if !first => break,
                Some(b) => b,
            };
            first = false;
            let lo = if b == b'\\' {
                match self.bump() {
                    None => return Err(self.error("trailing backslash in class")),
                    Some(b'd') => {
                        or_into(&mut set, &ByteClass::digits());
                        continue;
                    }
                    Some(b'w') => {
                        or_into(&mut set, &ByteClass::word());
                        continue;
                    }
                    Some(b's') => {
                        or_into(&mut set, &ByteClass::space());
                        continue;
                    }
                    Some(b'n') => b'\n',
                    Some(b't') => b'\t',
                    Some(b'r') => b'\r',
                    Some(e) => e,
                }
            } else {
                b
            };
            // Range?
            if self.peek() == Some(b'-') && self.input.get(self.pos + 1) != Some(&b']') {
                self.bump(); // '-'
                let hi = match self.bump() {
                    None => return Err(self.error("unterminated range")),
                    Some(b'\\') => self
                        .bump()
                        .ok_or_else(|| self.error("trailing backslash"))?,
                    Some(h) => h,
                };
                if hi < lo {
                    return Err(self.error("invalid range (hi < lo)"));
                }
                set.insert_range(lo, hi);
            } else {
                set.insert(lo);
            }
        }
        if negate {
            set.negate();
        }
        Ok(Ast::Class(set))
    }
}

fn or_into(dst: &mut ByteClass, src: &ByteClass) {
    for i in 0..4 {
        dst.bits[i] |= src.bits[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_literals_to_concat() {
        let ast = parse("ab").unwrap();
        assert!(matches!(ast, Ast::Concat(ref v) if v.len() == 2));
    }

    #[test]
    fn class_membership() {
        let Ast::Class(c) = parse("[a-cx]").unwrap() else {
            panic!("expected class")
        };
        assert!(c.contains(b'a') && c.contains(b'b') && c.contains(b'c') && c.contains(b'x'));
        assert!(!c.contains(b'd'));
    }

    #[test]
    fn negated_class() {
        let Ast::Class(c) = parse("[^0-9]").unwrap() else {
            panic!("expected class")
        };
        assert!(!c.contains(b'5'));
        assert!(c.contains(b'a'));
    }

    #[test]
    fn literal_dash_at_end_of_class() {
        let Ast::Class(c) = parse("[a-]").unwrap() else {
            panic!("expected class")
        };
        assert!(c.contains(b'a') && c.contains(b'-'));
    }

    #[test]
    fn counted_forms() {
        assert!(matches!(
            parse("a{3}").unwrap(),
            Ast::Repeat {
                min: 3,
                max: Some(3),
                ..
            }
        ));
        assert!(matches!(
            parse("a{2,}").unwrap(),
            Ast::Repeat {
                min: 2,
                max: None,
                ..
            }
        ));
        assert!(matches!(
            parse("a{2,5}").unwrap(),
            Ast::Repeat {
                min: 2,
                max: Some(5),
                ..
            }
        ));
    }

    #[test]
    fn error_positions() {
        let err = parse("ab(cd").unwrap_err();
        assert_eq!(err.position, 5);
    }
}
