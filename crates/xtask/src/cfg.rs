//! Control-flow graph lowering for the dataflow passes.
//!
//! [`lower`] turns one function body span (byte range into the masked
//! text, braces included) into a small CFG: basic blocks holding
//! statement spans, edges carrying optional branch conditions (the
//! condition's byte span plus a polarity), and loop-head blocks with
//! back-edges. The lowering is structural — `if`/`else` chains,
//! `while`/`while let`, `loop`, `for`, `match` (arm patterns become
//! edge conditions, which is how the float pass sees a `Mode::Fma`
//! gate), `return`/`break`/`continue`, `?` early exits, and
//! control-flow initializers (`let r = loop { .. }`, `let v = if ..`)
//! whose bound name surfaces as an opaque binding in the join block.
//!
//! Guarantees the passes rely on:
//!
//! * every statement byte span lies inside the body span and spans
//!   never overlap block-to-block;
//! * back-edges only target blocks marked `loop_head`;
//! * `loop_depth` counts enclosing loops and `encl_heads` names their
//!   head blocks innermost-last, so a pass can walk from an access to
//!   the `for`-headers that scope it.
//!
//! Labeled `break`/`continue` jump to the *innermost* loop — a
//! documented over-approximation (DESIGN §6d): states merge into an
//! inner join instead of the outer one, which only widens what the
//! passes believe, never narrows it.

/// One lowered function body.
pub struct Cfg {
    pub blocks: Vec<Block>,
    /// Entry block index (always 0).
    pub entry: usize,
    /// Synthetic exit block (no statements, no out-edges). Forward
    /// passes don't read it, but a backward pass would seed here.
    #[allow(dead_code)]
    pub exit: usize,
}

pub struct Block {
    pub stmts: Vec<Stmt>,
    pub edges: Vec<Edge>,
    /// True for `while`/`loop`/`for` header blocks (widening points).
    pub loop_head: bool,
    /// Number of enclosing loops (the head block itself counts).
    pub loop_depth: usize,
    /// Head-block indices of the enclosing loops, innermost last.
    pub encl_heads: Vec<usize>,
}

pub struct Stmt {
    /// Byte span in the masked text.
    pub span: (usize, usize),
    pub kind: StmtKind,
}

#[derive(PartialEq)]
pub enum StmtKind {
    Plain,
    /// `for PAT in ITER` header: the pattern and iterator expression.
    ForHead {
        pat: (usize, usize),
        iter: (usize, usize),
    },
    /// A binding whose initializer was a control-flow expression
    /// (`let r = loop { .. }`): the value is opaque to the domain.
    BindOpaque {
        name: (usize, usize),
    },
}

pub struct Edge {
    pub to: usize,
    pub cond: Option<Cond>,
}

/// A branch condition: the guarding expression's byte span (for `match`
/// arms, the arm pattern including any `if` guard) and whether this
/// edge is taken when it holds (`true`) or fails (`false`).
pub struct Cond {
    pub span: (usize, usize),
    pub polarity: bool,
}

/// Lower the body at `body` (a `{ .. }` span in `masked`).
pub fn lower(masked: &str, body: (usize, usize)) -> Cfg {
    let b = masked.as_bytes();
    let (b0, b1) = body;
    let b1 = b1.min(b.len());
    // The span includes the outer braces; lower their interior.
    let (i0, i1) = if b0 < b1 && b[b0] == b'{' {
        (b0 + 1, b1.saturating_sub(1).max(b0 + 1))
    } else {
        (b0, b1)
    };
    let mut lw = Lower {
        b,
        blocks: Vec::new(),
        exit: 0,
        loops: Vec::new(),
    };
    let entry = lw.new_block();
    lw.exit = lw.new_block();
    let out = lw.lower_block(i0, i1, entry);
    let exit = lw.exit;
    lw.edge(out, exit, None);
    Cfg {
        blocks: lw.blocks,
        entry,
        exit,
    }
}

struct LoopCtx {
    head: usize,
    after: usize,
}

struct Lower<'a> {
    b: &'a [u8],
    blocks: Vec<Block>,
    exit: usize,
    loops: Vec<LoopCtx>,
}

impl<'a> Lower<'a> {
    fn new_block(&mut self) -> usize {
        self.blocks.push(Block {
            stmts: Vec::new(),
            edges: Vec::new(),
            loop_head: false,
            loop_depth: self.loops.len(),
            encl_heads: self.loops.iter().map(|l| l.head).collect(),
        });
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize, cond: Option<Cond>) {
        self.blocks[from].edges.push(Edge { to, cond });
    }

    /// Lower the statements in `i0..i1` starting in `cur`; returns the
    /// block control falls out of.
    fn lower_block(&mut self, i0: usize, i1: usize, mut cur: usize) -> usize {
        let mut i = i0;
        loop {
            i = self.skip_ws(i, i1);
            if i >= i1 {
                return cur;
            }
            // Loop labels (`'outer: loop {`): skip to the keyword.
            if self.b[i] == b'\'' {
                let mut j = i + 1;
                while j < i1 && (self.b[j].is_ascii_alphanumeric() || self.b[j] == b'_') {
                    j += 1;
                }
                if j < i1 && self.b[j] == b':' {
                    i = j + 1;
                    continue;
                }
            }
            if self.b[i] == b'{' {
                let close = self.match_brace(i, i1);
                cur = self.lower_block(i + 1, close, cur);
                i = close + 1;
                continue;
            }
            if self.b[i] == b'}' || self.b[i] == b';' {
                i += 1;
                continue;
            }
            let word = self.word_at(i);
            match word {
                "if" => (i, cur) = self.lower_if(i + 2, i1, cur),
                "while" => (i, cur) = self.lower_while(i + 5, i1, cur),
                "loop" => (i, cur) = self.lower_loop(i + 4, i1, cur),
                "for" => (i, cur) = self.lower_for(i + 3, i1, cur),
                "match" => (i, cur) = self.lower_match(i + 5, i1, cur),
                "return" => {
                    let end = self.stmt_end(i, i1);
                    self.push_stmt(cur, (i, end), StmtKind::Plain);
                    let exit = self.exit;
                    self.edge(cur, exit, None);
                    cur = self.new_block();
                    i = end + 1;
                }
                "break" => {
                    let end = self.stmt_end(i, i1);
                    if let Some(l) = self.loops.last() {
                        let after = l.after;
                        self.edge(cur, after, None);
                    } else {
                        let exit = self.exit;
                        self.edge(cur, exit, None);
                    }
                    cur = self.new_block();
                    i = end + 1;
                }
                "continue" => {
                    let end = self.stmt_end(i, i1);
                    if let Some(l) = self.loops.last() {
                        let head = l.head;
                        self.edge(cur, head, None);
                    }
                    cur = self.new_block();
                    i = end + 1;
                }
                "let" => {
                    if let Some((name, kw_at, kw)) = self.ctrl_initializer(i, i1) {
                        // `let r = loop { .. };` — lower the construct,
                        // then bind `r` opaquely in the continuation.
                        let (ni, out) = match kw {
                            "if" => self.lower_if(kw_at + 2, i1, cur),
                            "match" => self.lower_match(kw_at + 5, i1, cur),
                            _ => self.lower_loop(kw_at + 4, i1, cur),
                        };
                        cur = out;
                        self.push_stmt(cur, name, StmtKind::BindOpaque { name });
                        i = ni;
                    } else {
                        let end = self.stmt_end(i, i1);
                        self.push_stmt(cur, (i, end), StmtKind::Plain);
                        if self.span_has_question(i, end) {
                            let exit = self.exit;
                            self.edge(cur, exit, None);
                        }
                        i = end + 1;
                    }
                }
                _ => {
                    let end = self.stmt_end(i, i1);
                    self.push_stmt(cur, (i, end), StmtKind::Plain);
                    if self.span_has_question(i, end) {
                        let exit = self.exit;
                        self.edge(cur, exit, None);
                    }
                    i = end + 1;
                }
            }
        }
    }

    /// `i` points just past the `if` keyword. Returns (next index,
    /// join block).
    fn lower_if(&mut self, i: usize, i1: usize, cur: usize) -> (usize, usize) {
        let open = self.find_body_open(i, i1);
        let cond = (i, open);
        let close = self.match_brace(open, i1);
        let then_entry = self.new_block();
        self.edge(
            cur,
            then_entry,
            Some(Cond {
                span: cond,
                polarity: true,
            }),
        );
        let then_out = self.lower_block(open + 1, close, then_entry);
        let join = self.new_block();
        self.edge(then_out, join, None);

        let mut j = self.skip_ws(close + 1, i1);
        if self.word_at(j) == "else" {
            j = self.skip_ws(j + 4, i1);
            if self.word_at(j) == "if" {
                let else_entry = self.new_block();
                self.edge(
                    cur,
                    else_entry,
                    Some(Cond {
                        span: cond,
                        polarity: false,
                    }),
                );
                let (nj, else_out) = self.lower_if(j + 2, i1, else_entry);
                self.edge(else_out, join, None);
                (nj, join)
            } else if j < i1 && self.b[j] == b'{' {
                let eclose = self.match_brace(j, i1);
                let else_entry = self.new_block();
                self.edge(
                    cur,
                    else_entry,
                    Some(Cond {
                        span: cond,
                        polarity: false,
                    }),
                );
                let else_out = self.lower_block(j + 1, eclose, else_entry);
                self.edge(else_out, join, None);
                (eclose + 1, join)
            } else {
                // Malformed else; fall through.
                self.edge(
                    cur,
                    join,
                    Some(Cond {
                        span: cond,
                        polarity: false,
                    }),
                );
                (j, join)
            }
        } else {
            self.edge(
                cur,
                join,
                Some(Cond {
                    span: cond,
                    polarity: false,
                }),
            );
            (close + 1, join)
        }
    }

    /// `i` points just past `while`. Covers `while let` too (the whole
    /// `let pat = expr` text becomes the condition span).
    fn lower_while(&mut self, i: usize, i1: usize, cur: usize) -> (usize, usize) {
        let open = self.find_body_open(i, i1);
        let cond = (i, open);
        let close = self.match_brace(open, i1);
        let head = self.new_block();
        self.blocks[head].loop_head = true;
        self.edge(cur, head, None);
        let after = self.new_block();
        self.edge(
            head,
            after,
            Some(Cond {
                span: cond,
                polarity: false,
            }),
        );
        self.loops.push(LoopCtx { head, after });
        let body_entry = self.new_block();
        self.edge(
            head,
            body_entry,
            Some(Cond {
                span: cond,
                polarity: true,
            }),
        );
        let body_out = self.lower_block(open + 1, close, body_entry);
        self.loops.pop();
        self.edge(body_out, head, None);
        (close + 1, after)
    }

    fn lower_loop(&mut self, i: usize, i1: usize, cur: usize) -> (usize, usize) {
        let open = self.find_body_open(i, i1);
        let close = self.match_brace(open, i1);
        let head = self.new_block();
        self.blocks[head].loop_head = true;
        self.edge(cur, head, None);
        let after = self.new_block();
        self.loops.push(LoopCtx { head, after });
        let body_entry = self.new_block();
        self.edge(head, body_entry, None);
        let body_out = self.lower_block(open + 1, close, body_entry);
        self.loops.pop();
        self.edge(body_out, head, None);
        (close + 1, after)
    }

    /// `i` points just past `for`. The header becomes a `ForHead`
    /// statement on the loop-head block.
    fn lower_for(&mut self, i: usize, i1: usize, cur: usize) -> (usize, usize) {
        let open = self.find_body_open(i, i1);
        let close = self.match_brace(open, i1);
        let in_at = self.find_word_top(i, open, "in");
        let (pat, iter) = match in_at {
            Some(p) => ((i, p), (p + 2, open)),
            None => ((i, i), (i, open)),
        };
        let head = self.new_block();
        self.blocks[head].loop_head = true;
        self.push_stmt(head, (i, open), StmtKind::ForHead { pat, iter });
        self.edge(cur, head, None);
        let after = self.new_block();
        self.edge(head, after, None);
        self.loops.push(LoopCtx { head, after });
        let body_entry = self.new_block();
        self.edge(head, body_entry, None);
        let body_out = self.lower_block(open + 1, close, body_entry);
        self.loops.pop();
        self.edge(body_out, head, None);
        (close + 1, after)
    }

    /// `i` points just past `match`. Arm patterns (with guards) become
    /// edge conditions; arm bodies are lowered; all arms join.
    fn lower_match(&mut self, i: usize, i1: usize, cur: usize) -> (usize, usize) {
        let open = self.find_body_open(i, i1);
        let close = self.match_brace(open, i1);
        // The scrutinee is evaluated once, in the branching block.
        self.push_stmt(cur, (i, open), StmtKind::Plain);
        let join = self.new_block();
        let mut j = open + 1;
        while j < close {
            j = self.skip_ws(j, close);
            while j < close && self.b[j] == b',' {
                j = self.skip_ws(j + 1, close);
            }
            if j >= close {
                break;
            }
            let Some(arrow) = self.find_arrow(j, close) else {
                break;
            };
            let pat = (j, arrow);
            let arm_entry = self.new_block();
            self.edge(
                cur,
                arm_entry,
                Some(Cond {
                    span: pat,
                    polarity: true,
                }),
            );
            let mut k = self.skip_ws(arrow + 2, close);
            let out = if k < close && self.b[k] == b'{' {
                let bclose = self.match_brace(k, close);
                let o = self.lower_block(k + 1, bclose, arm_entry);
                k = bclose + 1;
                o
            } else {
                let end = self.arm_expr_end(k, close);
                let o = match self.word_at(k) {
                    "return" => {
                        self.push_stmt(arm_entry, (k, end), StmtKind::Plain);
                        let exit = self.exit;
                        self.edge(arm_entry, exit, None);
                        self.new_block()
                    }
                    "break" => {
                        let t = self.loops.last().map(|l| l.after).unwrap_or(self.exit);
                        self.edge(arm_entry, t, None);
                        self.new_block()
                    }
                    "continue" => {
                        if let Some(l) = self.loops.last() {
                            let head = l.head;
                            self.edge(arm_entry, head, None);
                        }
                        self.new_block()
                    }
                    _ => {
                        self.push_stmt(arm_entry, (k, end), StmtKind::Plain);
                        arm_entry
                    }
                };
                k = end;
                o
            };
            self.edge(out, join, None);
            j = k;
        }
        let mut nj = close + 1;
        if nj < i1 && self.b.get(nj) == Some(&b';') {
            nj += 1;
        }
        (nj, join)
    }

    /// Does `let` at `i` initialize from a control-flow expression?
    /// Returns (name span, keyword offset, keyword).
    fn ctrl_initializer(
        &mut self,
        i: usize,
        i1: usize,
    ) -> Option<((usize, usize), usize, &'a str)> {
        let mut j = self.skip_ws(i + 3, i1);
        if self.word_at(j) == "mut" {
            j = self.skip_ws(j + 3, i1);
        }
        let n0 = j;
        while j < i1 && (self.b[j].is_ascii_alphanumeric() || self.b[j] == b'_') {
            j += 1;
        }
        if j == n0 {
            return None;
        }
        let name = (n0, j);
        // Skip an optional `: Type` annotation to the `=` at depth 0.
        let mut depth = 0i32;
        let mut k = j;
        while k < i1 {
            match self.b[k] {
                b'(' | b'[' | b'<' => depth += 1,
                b')' | b']' | b'>' => depth -= 1,
                b'=' if depth <= 0 => {
                    // `==`, `=>`, `<=` etc. cannot appear here at depth 0
                    // before the initializer.
                    let kw_at = self.skip_ws(k + 1, i1);
                    let kw = self.word_at(kw_at);
                    return match kw {
                        "if" | "match" | "loop" => {
                            // Only when the construct is the whole
                            // initializer (its block ends the statement).
                            Some((name, kw_at, kw))
                        }
                        _ => None,
                    };
                }
                b';' => return None,
                _ => {}
            }
            k += 1;
        }
        None
    }

    fn push_stmt(&mut self, block: usize, span: (usize, usize), kind: StmtKind) {
        self.blocks[block].stmts.push(Stmt { span, kind });
    }

    fn skip_ws(&self, mut i: usize, i1: usize) -> usize {
        while i < i1 && self.b[i].is_ascii_whitespace() {
            i += 1;
        }
        i
    }

    /// The identifier/keyword starting at `i` (empty if none).
    fn word_at(&self, i: usize) -> &'a str {
        let mut j = i;
        while j < self.b.len() && (self.b[j].is_ascii_alphanumeric() || self.b[j] == b'_') {
            j += 1;
        }
        // Reject when the previous byte continues an identifier.
        if i > 0 && (self.b[i - 1].is_ascii_alphanumeric() || self.b[i - 1] == b'_') {
            return "";
        }
        std::str::from_utf8(&self.b[i..j]).unwrap_or("")
    }

    /// First `{` at paren/bracket depth 0 from `i` (Rust forbids bare
    /// struct literals in condition position, so this is the body).
    fn find_body_open(&self, mut i: usize, i1: usize) -> usize {
        let mut depth = 0i32;
        while i < i1 {
            match self.b[i] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b'{' if depth <= 0 => return i,
                _ => {}
            }
            i += 1;
        }
        i1.saturating_sub(1)
    }

    /// Matching `}` for the `{` at `open` (clamped to `i1`).
    fn match_brace(&self, open: usize, i1: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < i1 {
            match self.b[i] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        i1.saturating_sub(1).max(open)
    }

    /// End of a plain statement: the `;` at brace/paren depth 0, or the
    /// end of the enclosing block (tail expression).
    fn stmt_end(&self, i: usize, i1: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < i1 {
            match self.b[j] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => {
                    if depth == 0 {
                        return j;
                    }
                    depth -= 1;
                }
                b';' if depth == 0 => return j,
                _ => {}
            }
            j += 1;
        }
        i1
    }

    /// End of an expression-form match arm: `,` at depth 0 or `close`.
    fn arm_expr_end(&self, i: usize, close: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < close {
            match self.b[j] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                b',' if depth == 0 => return j,
                _ => {}
            }
            j += 1;
        }
        close
    }

    /// `=>` at depth 0 (tracking all bracket kinds — struct patterns
    /// contain braces, or-patterns contain `|`).
    fn find_arrow(&self, i: usize, close: usize) -> Option<usize> {
        let mut depth = 0i32;
        let mut j = i;
        while j + 1 < close {
            match self.b[j] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                b'=' if depth == 0 && self.b[j + 1] == b'>' => return Some(j),
                _ => {}
            }
            j += 1;
        }
        None
    }

    /// Word `w` at bracket depth 0 within `i..i1`, with word boundaries.
    fn find_word_top(&self, i: usize, i1: usize, w: &str) -> Option<usize> {
        let mut depth = 0i32;
        let mut j = i;
        let wb = w.as_bytes();
        while j < i1 {
            match self.b[j] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                c if depth == 0
                    && c == wb[0]
                    && self.b[j..].starts_with(wb)
                    && (j == 0
                        || !(self.b[j - 1].is_ascii_alphanumeric() || self.b[j - 1] == b'_'))
                    && self
                        .b
                        .get(j + wb.len())
                        .is_none_or(|c| !(c.is_ascii_alphanumeric() || *c == b'_')) =>
                {
                    return Some(j);
                }
                _ => {}
            }
            j += 1;
        }
        None
    }

    fn span_has_question(&self, i: usize, end: usize) -> bool {
        self.b[i..end.min(self.b.len())].contains(&b'?')
    }
}

/// Reverse post-order over the CFG (entry first); unreachable blocks
/// are appended at the end so every block gets a position.
pub fn rpo(cfg: &Cfg) -> Vec<usize> {
    let n = cfg.blocks.len();
    let mut seen = vec![false; n];
    let mut post = Vec::with_capacity(n);
    // Iterative DFS with an explicit edge cursor.
    let mut stack: Vec<(usize, usize)> = vec![(cfg.entry, 0)];
    seen[cfg.entry] = true;
    while let Some(&mut (blk, ref mut cursor)) = stack.last_mut() {
        if let Some(e) = cfg.blocks[blk].edges.get(*cursor) {
            *cursor += 1;
            if !seen[e.to] {
                seen[e.to] = true;
                stack.push((e.to, 0));
            }
        } else {
            post.push(blk);
            stack.pop();
        }
    }
    post.reverse();
    for (i, s) in seen.iter().enumerate() {
        if !s {
            post.push(i);
        }
    }
    post
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower_src(src: &str) -> (String, Cfg) {
        let lx = crate::lexer::lex(src);
        let items = crate::parser::parse(&lx.masked);
        for item in &items {
            if let crate::parser::ItemKind::Fn(f) = &item.kind {
                let body = f.body.expect("fn has a body");
                return (lx.masked.clone(), lower(&lx.masked, body));
            }
        }
        panic!("no fn in {src:?}");
    }

    fn stmt_texts(masked: &str, cfg: &Cfg) -> Vec<String> {
        let mut out = Vec::new();
        for blk in &cfg.blocks {
            for s in &blk.stmts {
                out.push(masked[s.span.0..s.span.1].trim().to_string());
            }
        }
        out
    }

    fn cond_texts(masked: &str, cfg: &Cfg) -> Vec<(String, bool)> {
        let mut out = Vec::new();
        for blk in &cfg.blocks {
            for e in &blk.edges {
                if let Some(c) = &e.cond {
                    out.push((masked[c.span.0..c.span.1].trim().to_string(), c.polarity));
                }
            }
        }
        out
    }

    #[test]
    fn exit_block_is_a_sink() {
        let (_, cfg) = lower_src("fn f(x: u32) -> u32 { if x > 1 { a(); } x }");
        assert!(cfg.exit < cfg.blocks.len());
        assert!(
            cfg.blocks[cfg.exit].edges.is_empty(),
            "the exit block must have no successors"
        );
    }

    #[test]
    fn if_else_produces_both_polarities_and_a_join() {
        let (m, cfg) = lower_src("fn f(x: u32) -> u32 { if x > 1 { a(); } else { b(); } c() }");
        let conds = cond_texts(&m, &cfg);
        assert!(conds.contains(&("x > 1".to_string(), true)), "{conds:?}");
        assert!(conds.contains(&("x > 1".to_string(), false)), "{conds:?}");
        let stmts = stmt_texts(&m, &cfg);
        assert!(stmts.iter().any(|s| s.starts_with("a()")), "{stmts:?}");
        assert!(stmts.iter().any(|s| s.starts_with("b()")), "{stmts:?}");
        assert!(stmts.iter().any(|s| s.starts_with("c()")), "{stmts:?}");
    }

    #[test]
    fn else_if_chains_nest() {
        let (m, cfg) = lower_src("fn f(x: u32) { if x > 2 { a(); } else if x > 1 { b(); } }");
        let conds = cond_texts(&m, &cfg);
        assert!(conds.contains(&("x > 2".to_string(), false)), "{conds:?}");
        assert!(conds.contains(&("x > 1".to_string(), true)), "{conds:?}");
    }

    #[test]
    fn while_loop_has_head_backedge_and_exit_refinement() {
        let (m, cfg) = lower_src("fn f(n: usize) { let mut i = 0; while i < n { i += 1; } }");
        let head = cfg
            .blocks
            .iter()
            .position(|b| b.loop_head)
            .expect("loop head");
        // Back edge: some block at depth >= 1 targets the head.
        assert!(
            cfg.blocks.iter().enumerate().any(|(i, b)| i != head
                && b.loop_depth >= 1
                && b.edges.iter().any(|e| e.to == head)),
            "no back edge"
        );
        let conds = cond_texts(&m, &cfg);
        assert!(conds.contains(&("i < n".to_string(), true)), "{conds:?}");
        assert!(conds.contains(&("i < n".to_string(), false)), "{conds:?}");
    }

    #[test]
    fn for_loop_records_pattern_and_iter() {
        let (m, cfg) = lower_src("fn f(xs: &[f32]) { for i in 0..xs.len() { g(i); } }");
        let head = &cfg.blocks[cfg
            .blocks
            .iter()
            .position(|b| b.loop_head)
            .expect("loop head")];
        let fh = head
            .stmts
            .iter()
            .find_map(|s| match &s.kind {
                StmtKind::ForHead { pat, iter } => Some((*pat, *iter)),
                _ => None,
            })
            .expect("ForHead");
        assert_eq!(m[fh.0 .0..fh.0 .1].trim(), "i");
        assert_eq!(m[fh.1 .0..fh.1 .1].trim(), "0..xs.len()");
        // Body blocks carry loop depth and the enclosing head.
        assert!(cfg
            .blocks
            .iter()
            .any(|b| b.loop_depth == 1 && !b.encl_heads.is_empty()));
    }

    #[test]
    fn early_return_edges_to_exit() {
        let (m, cfg) = lower_src("fn f(x: u32) -> u32 { if x == 0 { return 7; } x }");
        // The block holding `return 7` must edge to exit.
        let mut found = false;
        for blk in &cfg.blocks {
            let has_ret = blk
                .stmts
                .iter()
                .any(|s| m[s.span.0..s.span.1].contains("return 7"));
            if has_ret {
                found = blk.edges.iter().any(|e| e.to == cfg.exit);
            }
        }
        assert!(found, "return block does not reach exit");
    }

    #[test]
    fn let_bound_loop_yields_opaque_binding_after_the_loop() {
        let (m, cfg) =
            lower_src("fn f() -> u32 { let r = loop { if done() { break 1; } }; r + 1 }");
        assert!(cfg.blocks.iter().any(|b| b.loop_head), "loop lowered");
        let bind = cfg
            .blocks
            .iter()
            .flat_map(|b| &b.stmts)
            .find_map(|s| match &s.kind {
                StmtKind::BindOpaque { name } => Some(m[name.0..name.1].to_string()),
                _ => None,
            });
        assert_eq!(bind.as_deref(), Some("r"));
    }

    #[test]
    fn match_arms_become_conditional_edges() {
        let (m, cfg) = lower_src(
            "fn f(m: Mode) -> f32 { match m { Mode::Strict => a(), Mode::Fma => { b() } } }",
        );
        let conds = cond_texts(&m, &cfg);
        assert!(
            conds.iter().any(|(c, p)| c == "Mode::Strict" && *p),
            "{conds:?}"
        );
        assert!(
            conds.iter().any(|(c, p)| c == "Mode::Fma" && *p),
            "{conds:?}"
        );
    }

    #[test]
    fn question_mark_adds_an_exit_edge() {
        let (_, cfg) = lower_src("fn f() -> Result<u32, E> { let x = g()?; Ok(x) }");
        let into_exit: usize = cfg
            .blocks
            .iter()
            .map(|b| b.edges.iter().filter(|e| e.to == cfg.exit).count())
            .sum();
        assert!(
            into_exit >= 2,
            "expected fallthrough + ? edge, got {into_exit}"
        );
    }

    #[test]
    fn rpo_visits_entry_first_and_every_block() {
        let (_, cfg) = lower_src("fn f(n: usize) { for i in 0..n { if i > 2 { a(); } } b(); }");
        let order = rpo(&cfg);
        assert_eq!(order[0], cfg.entry);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..cfg.blocks.len()).collect::<Vec<_>>());
    }

    #[test]
    fn nested_loops_track_depth() {
        let (_, cfg) = lower_src("fn f(n: usize) { for i in 0..n { for j in 0..n { g(i, j); } } }");
        assert!(cfg.blocks.iter().any(|b| b.loop_depth == 2));
        assert_eq!(cfg.blocks.iter().filter(|b| b.loop_head).count(), 2);
    }
}
