//! Compiler (AST → instruction program) and the Pike VM.

use super::parser::{Ast, ByteClass};

/// One VM instruction.
#[derive(Debug, Clone)]
pub(super) enum Inst {
    /// Consume one byte in the class, then go to pc+1.
    Class(ByteClass),
    /// Fork execution (first target has priority — greedy choice).
    Split(usize, usize),
    /// Unconditional jump.
    Jmp(usize),
    /// `^` assertion (ε-transition valid only at text start).
    AssertStart,
    /// `$` assertion (ε-transition valid only at text end).
    AssertEnd,
    /// Accept.
    Match,
}

/// A compiled program.
pub(super) struct Program {
    insts: Vec<Inst>,
}

/// Compiles an AST into a program ending in [`Inst::Match`].
pub(super) fn compile(ast: &Ast) -> Program {
    let mut insts = Vec::new();
    emit(ast, &mut insts);
    insts.push(Inst::Match);
    Program { insts }
}

fn emit(ast: &Ast, out: &mut Vec<Inst>) {
    match ast {
        Ast::Empty => {}
        Ast::Class(c) => out.push(Inst::Class(c.clone())),
        Ast::Concat(parts) => {
            for p in parts {
                emit(p, out);
            }
        }
        Ast::Alternate(branches) => {
            // Chain of splits; each branch jumps to the common exit.
            let mut jmp_fixups = Vec::new();
            let last = branches.len() - 1;
            for (i, b) in branches.iter().enumerate() {
                if i < last {
                    let split_pc = out.len();
                    out.push(Inst::Split(0, 0)); // patched below
                    let branch_start = out.len();
                    emit(b, out);
                    jmp_fixups.push(out.len());
                    out.push(Inst::Jmp(0)); // patched to exit
                    let next_branch = out.len();
                    out[split_pc] = Inst::Split(branch_start, next_branch);
                } else {
                    emit(b, out);
                }
            }
            let exit = out.len();
            for pc in jmp_fixups {
                out[pc] = Inst::Jmp(exit);
            }
        }
        Ast::Repeat { node, min, max } => {
            // Mandatory copies.
            for _ in 0..*min {
                emit(node, out);
            }
            match max {
                None => {
                    // Greedy loop: Split(body, exit); body; Jmp(split).
                    let split_pc = out.len();
                    out.push(Inst::Split(0, 0));
                    let body = out.len();
                    emit(node, out);
                    out.push(Inst::Jmp(split_pc));
                    let exit = out.len();
                    out[split_pc] = Inst::Split(body, exit);
                }
                Some(max) => {
                    // (max - min) optional greedy copies, each may bail to
                    // the common exit.
                    let mut split_fixups = Vec::new();
                    for _ in *min..*max {
                        let split_pc = out.len();
                        out.push(Inst::Split(0, 0));
                        let body = out.len();
                        emit(node, out);
                        split_fixups.push((split_pc, body));
                    }
                    let exit = out.len();
                    for (split_pc, body) in split_fixups {
                        out[split_pc] = Inst::Split(body, exit);
                    }
                }
            }
        }
        Ast::StartAnchor => out.push(Inst::AssertStart),
        Ast::EndAnchor => out.push(Inst::AssertEnd),
    }
}

/// A live VM thread: program counter + where its match attempt started.
#[derive(Clone, Copy)]
struct Thread {
    pc: usize,
    start: usize,
}

impl Program {
    /// Unanchored leftmost-greedy search over the whole text.
    pub(super) fn search(&self, text: &[u8]) -> Option<(usize, usize)> {
        self.search_at(text, 0)
    }

    /// Unanchored search starting at byte offset `from`.
    ///
    /// Runs the Pike VM: a new thread is seeded at every position until a
    /// match is recorded; threads are processed in priority order so
    /// greedy alternatives win; a recorded match kills lower-priority
    /// threads and is overwritten only by higher-priority (earlier /
    /// greedier) threads that run longer.
    pub(super) fn search_at(&self, text: &[u8], from: usize) -> Option<(usize, usize)> {
        if from > text.len() {
            return None;
        }
        let len = text.len();
        let mut clist: Vec<Thread> = Vec::new();
        let mut nlist: Vec<Thread> = Vec::new();
        // Visited-set generation markers to deduplicate thread pcs.
        let mut seen = vec![usize::MAX; self.insts.len()];
        let mut matched: Option<(usize, usize)> = None;

        let mut pos = from;
        loop {
            // Seed a fresh attempt at this position (lowest priority),
            // unless a match is already pinned.
            if matched.is_none() {
                let gen = pos.wrapping_mul(2); // unique per closure pass
                self.add_thread(
                    &mut clist,
                    &mut seen,
                    gen,
                    pos,
                    len,
                    Thread { pc: 0, start: pos },
                );
            }
            if clist.is_empty() {
                break;
            }
            let byte = text.get(pos).copied();
            nlist.clear();
            let gen = pos.wrapping_mul(2) + 1;
            let current: Vec<Thread> = clist.clone();
            for th in current {
                match &self.insts[th.pc] {
                    Inst::Match => {
                        matched = Some((th.start, pos));
                        break; // kill lower-priority threads
                    }
                    Inst::Class(c) => {
                        if let Some(b) = byte {
                            if c.contains(b) {
                                self.add_thread(
                                    &mut nlist,
                                    &mut seen,
                                    gen,
                                    pos + 1,
                                    len,
                                    Thread {
                                        pc: th.pc + 1,
                                        start: th.start,
                                    },
                                );
                            }
                        }
                    }
                    // ε-instructions never appear in thread lists.
                    _ => unreachable!("epsilon instruction in thread list"),
                }
            }
            std::mem::swap(&mut clist, &mut nlist);
            if pos >= len {
                break;
            }
            pos += 1;
        }
        matched
    }

    /// Adds a thread, following ε-transitions; deduplicates by pc within
    /// one closure generation.
    fn add_thread(
        &self,
        list: &mut Vec<Thread>,
        seen: &mut [usize],
        gen: usize,
        pos: usize,
        len: usize,
        th: Thread,
    ) {
        if seen[th.pc] == gen {
            return;
        }
        seen[th.pc] = gen;
        match &self.insts[th.pc] {
            Inst::Jmp(t) => self.add_thread(list, seen, gen, pos, len, Thread { pc: *t, ..th }),
            Inst::Split(a, b) => {
                self.add_thread(list, seen, gen, pos, len, Thread { pc: *a, ..th });
                self.add_thread(list, seen, gen, pos, len, Thread { pc: *b, ..th });
            }
            Inst::AssertStart => {
                if pos == 0 {
                    self.add_thread(
                        list,
                        seen,
                        gen,
                        pos,
                        len,
                        Thread {
                            pc: th.pc + 1,
                            ..th
                        },
                    );
                }
            }
            Inst::AssertEnd => {
                if pos == len {
                    self.add_thread(
                        list,
                        seen,
                        gen,
                        pos,
                        len,
                        Thread {
                            pc: th.pc + 1,
                            ..th
                        },
                    );
                }
            }
            Inst::Class(_) | Inst::Match => list.push(th),
        }
    }
}

#[cfg(test)]
impl Program {
    /// Number of instructions (for size diagnostics).
    fn size(&self) -> usize {
        self.insts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::super::parser::parse;
    use super::*;

    fn prog(pattern: &str) -> Program {
        compile(&parse(pattern).unwrap())
    }

    #[test]
    fn program_sizes_are_reasonable() {
        assert_eq!(prog("").size(), 1); // just Match
        assert_eq!(prog("a").size(), 2);
        assert!(prog("a{10}").size() <= 11);
    }

    #[test]
    fn anchored_assertions_respect_position() {
        let p = prog("^a");
        assert_eq!(p.search(b"abc"), Some((0, 1)));
        assert_eq!(p.search(b"ba"), None);
        let p = prog("a$");
        assert_eq!(p.search(b"ba"), Some((1, 2)));
        assert_eq!(p.search(b"ab"), None);
    }

    #[test]
    fn greedy_priority_prefers_longer() {
        let p = prog("a+");
        assert_eq!(p.search(b"caaab"), Some((1, 4)));
    }

    #[test]
    fn leftmost_wins_over_longer_later() {
        let p = prog("a+|bbbb");
        assert_eq!(p.search(b"xabbbb"), Some((1, 2)));
    }

    #[test]
    fn search_at_skips_earlier_matches() {
        let p = prog("ab");
        assert_eq!(p.search_at(b"abab", 1), Some((2, 4)));
        assert_eq!(p.search_at(b"abab", 3), None);
        assert_eq!(p.search_at(b"abab", 99), None);
    }
}
