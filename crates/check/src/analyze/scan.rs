//! Per-file fact extraction: a line-oriented, brace-level scan of Rust
//! source that produces, for every function, an ordered event stream
//! (acquisitions, calls, blocking ops, sync points, commit-record appends,
//! commit-point mutations) annotated with the set of classified lock guards
//! live at each event and a block tree for dominance queries.
//!
//! This is deliberately not a parser. The same trade-off as `lint.rs`: a
//! few hundred lines of scanning that understand *this* workspace's rustfmt
//! output, with the known unsound corners documented in DESIGN.md §22.
//!
//! Pattern literals below are split with `concat!` so the analyzer does not
//! match its own source when it scans `crates/check/src`.

use std::fs;
use std::io;
use std::path::Path;

use super::catalogue::Catalogue;
use crate::lint;

/// `Ordering::Relaxed` (split so this file does not flag itself).
pub const PAT_RELAXED: &str = concat!("Ordering::Re", "laxed");
const PAT_DROP: &str = concat!("dr", "op(");
pub const PAT_DOT_SYNC: &str = concat!(".sy", "nc()");
pub const PAT_SYNC_THROUGH: &str = concat!("sync_th", "rough(");
pub const PAT_FORCE_THROUGH: &str = concat!("force_th", "rough(");
const PAT_APPEND: &str = concat!(".app", "end(");
/// Laying a record into a batch of frames (`Frames::push`); the batch
/// reaches the device in the `append_frames` that follows.
const PAT_FRAME_PUSH: &str = concat!(".pu", "sh(");
const PAT_KIND_COMMIT: &str = concat!("RecordKind::Com", "mit");
const PAT_KIND_DECISION: &str = concat!("DECISION_", "KIND");
const PAT_THREAD_SLEEP: &str = concat!("thread::sl", "eep");
const PAT_COLON_SLEEP: &str = concat!("::sl", "eep(");
const PAT_DOT_WAIT: &str = concat!(".wa", "it(");
const PAT_WAIT_UNTIL: &str = concat!(".wait_un", "til(");
const PAT_WAIT_WHILE: &str = concat!(".wait_wh", "ile(");
const PAT_WAIT_PAST: &str = concat!(".wait_pa", "st(");
const PAT_WAIT_TIMEOUT: &str = concat!(".wait_time", "out(");
const PAT_RECV: &str = concat!(".re", "cv(");
const PAT_RECV_TIMEOUT: &str = concat!(".recv_time", "out(");
const PAT_JOIN: &str = concat!(".jo", "in()");

/// Blocking-operation patterns. Sync patterns are blocking too: a device
/// force parks the thread.
const BLOCKING_PATS: &[&str] = &[
    PAT_DOT_SYNC,
    PAT_SYNC_THROUGH,
    PAT_FORCE_THROUGH,
    PAT_THREAD_SLEEP,
    PAT_COLON_SLEEP,
    PAT_DOT_WAIT,
    PAT_WAIT_UNTIL,
    PAT_WAIT_WHILE,
    PAT_WAIT_PAST,
    PAT_WAIT_TIMEOUT,
    PAT_RECV,
    PAT_RECV_TIMEOUT,
    PAT_JOIN,
];

/// Condvar waits that release their own guard while parked: a live guard
/// whose binding appears in the argument list is exempt from no-block.
const OWN_GUARD_WAITS: &[&str] = &[PAT_DOT_WAIT, PAT_WAIT_UNTIL, PAT_WAIT_WHILE];

/// Durability-relevant sync points.
const SYNC_PATS: &[&str] = &[PAT_DOT_SYNC, PAT_SYNC_THROUGH, PAT_FORCE_THROUGH];

/// Method-ish names never resolved as workspace calls: overwhelmingly
/// homonyms of std/collection methods, so resolving them would propagate a
/// workspace function's acquisitions to every `HashMap::insert` call site.
/// Classified patterns and declared bindings still match on these lines.
const IGNORE_CALLS: &[&str] = &[
    "lock",
    "try_lock",
    "read",
    "write",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "push_back",
    "pop",
    "pop_front",
    "send",
    "recv",
    "next",
    "len",
    "is_empty",
    "clone",
    "drop",
    "entry",
    "or_default",
    "or_insert_with",
    "contains_key",
    "contains",
    "iter",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "map",
    "and_then",
    "filter",
    "filter_map",
    "collect",
    "take",
    "extend",
    "retain",
    "min",
    "max",
    "new",
    "default",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "from",
    "into",
    "as_ref",
    "as_str",
    "to_vec",
    "to_string",
    "wait",
    "notify_all",
    "notify_one",
    "matches",
    "name",
    "now",
    "advance",
    "record",
    "merge",
    "quantile",
    "mean",
    "observe",
    "span",
    "start",
    "reset",
    "snapshot",
    "render",
    "parse",
    "diff",
    "enter",
    "meta",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "ok",
    "err",
    "is_ok",
    "is_err",
    "is_some",
    "is_none",
    "any",
    "all",
    "find",
    "position",
    "count",
    "sum",
    "fold",
    "rev",
    "zip",
    "enumerate",
    "cloned",
    "copied",
    "join",
    "split",
    "trim",
    "write_all",
    "flush",
    "sync_all",
    "seek",
    "open",
    "create",
    "path",
    "exists",
    "min_by_key",
    "max_by_key",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "dedup",
    "last",
    "first",
    "swap",
    "replace",
    "drain",
    "clear",
    "finish",
    "abs",
    "signal",
    "version",
    "tick",
];

const KEYWORDS: &[&str] = &[
    "if", "match", "while", "for", "loop", "return", "as", "in", "fn", "let", "move", "ref", "mut",
    "else", "impl", "use", "pub", "where", "unsafe", "dyn", "box", "await", "Some", "Ok", "Err",
    "None",
];

/// One brace block in a function body. Block 0 is the body itself.
#[derive(Debug)]
pub struct Block {
    pub parent: Option<usize>,
    /// `true` for control-flow blocks (if/loop/match-arm/closure bodies);
    /// `false` for bare `{` scope blocks, which are transparent to
    /// dominance (code after them still runs).
    pub control: bool,
}

/// A classified guard live at some event.
#[derive(Debug, Clone, PartialEq)]
pub struct HeldGuard {
    pub class: usize,
    pub line: usize,
}

#[derive(Debug)]
pub enum EventKind {
    /// Direct acquisition of a classified lock.
    Acquire { class: usize },
    /// Call-site match of a declared binding (index into catalogue).
    Binding { binding: usize },
    /// Resolvable call to a workspace function name.
    Call { name: String },
    /// A blocking operation; `exempt` lists classes excused by the
    /// own-guard condvar rule.
    Blocking {
        desc: &'static str,
        exempt: Vec<usize>,
    },
    /// A durability sync point (`.sync()` / `sync_through` / `force_through`).
    Sync,
    /// A WAL commit-record append (directly, or laid into a batch of frames).
    CommitMarker,
    /// A commit-point state mutation (index into catalogue mutations).
    Mutation { mutation: usize },
}

#[derive(Debug)]
pub struct Event {
    pub line: usize,
    pub block: usize,
    pub kind: EventKind,
    /// Guards live just before this event.
    pub held: Vec<HeldGuard>,
}

#[derive(Debug)]
pub struct FnFact {
    pub name: String,
    pub line: usize,
    pub blocks: Vec<Block>,
    pub events: Vec<Event>,
}

#[derive(Debug)]
pub struct FileFacts {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    pub fns: Vec<FnFact>,
    /// Lines (outside `cfg(test)`) containing a Relaxed atomic ordering.
    pub relaxed: Vec<usize>,
}

impl FnFact {
    /// Nearest control ancestor-or-self: the block whose entry actually
    /// guards execution of code in `b` (bare blocks are transparent).
    pub fn eff_block(&self, mut b: usize) -> usize {
        loop {
            if self.blocks[b].control {
                return b;
            }
            match self.blocks[b].parent {
                Some(p) => b = p,
                None => return b,
            }
        }
    }

    /// Is `anc` an ancestor of (or equal to) `b` in the block tree?
    pub fn is_ancestor(&self, anc: usize, mut b: usize) -> bool {
        loop {
            if anc == b {
                return true;
            }
            match self.blocks[b].parent {
                Some(p) => b = p,
                None => return false,
            }
        }
    }

    /// Does event `e` dominate event `m` (run on every path that reaches
    /// `m`)? Approximation: `e` precedes `m` and `e`'s effective block is
    /// an ancestor-or-self of `m`'s block. Early returns between the two
    /// are the documented unsoundness.
    pub fn dominates(&self, e: usize, m: usize) -> bool {
        e < m && self.is_ancestor(self.eff_block(self.events[e].block), self.events[m].block)
    }

    /// Does event `s` post-dominate event `a` (run on every path leaving
    /// `a`)? Same approximation, mirrored.
    pub fn postdominates(&self, s: usize, a: usize) -> bool {
        s > a && self.is_ancestor(self.eff_block(self.events[s].block), self.events[a].block)
    }
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Blank string/char-literal interiors (preserving columns) and truncate at
/// a `//` comment. `in_string` carries multi-line string state across lines.
fn strip(line: &str, in_string: &mut bool) -> String {
    let b = line.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if *in_string {
            if c == b'\\' {
                out.push(b' ');
                if i + 1 < b.len() {
                    out.push(b' ');
                    i += 2;
                    continue;
                }
            } else if c == b'"' {
                *in_string = false;
                out.push(b'"');
            } else {
                out.push(b' ');
            }
            i += 1;
            continue;
        }
        match c {
            b'"' => {
                *in_string = true;
                out.push(b'"');
                i += 1;
            }
            b'\'' => {
                // Char literal ('x', '\n') vs lifetime ('a). Blank literals;
                // copy lifetimes through.
                if i + 2 < b.len() && b[i + 1] != b'\\' && b[i + 2] == b'\'' {
                    out.extend_from_slice(b"' '");
                    i += 3;
                } else if i + 3 < b.len() && b[i + 1] == b'\\' && b[i + 3] == b'\'' {
                    out.extend_from_slice(b"'  '");
                    i += 4;
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => break,
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    // A backslash-continued string keeps `in_string` set for the next line.
    String::from_utf8_lossy(&out).into_owned()
}

#[derive(Debug)]
enum LiveKind {
    /// `let`-bound: dies when the owning block closes or `drop(binding)`.
    Bound { depth: usize },
    /// Statement temporary: dies at the first `;` at its depth or the first
    /// `{` opened at its depth.
    Transient { depth: usize },
    /// Scoped-binding guard waiting for its closure brace on this line.
    AwaitBrace { depth: usize },
    /// Closure-scoped guard: dies when depth returns to its level.
    Scoped { depth: usize },
}

#[derive(Debug)]
struct Live {
    class: usize,
    line: usize,
    binding: Option<String>,
    kind: LiveKind,
}

struct FnCtx {
    name: String,
    line: usize,
    decl_depth: usize,
    blocks: Vec<Block>,
    stack: Vec<usize>,
    events: Vec<Event>,
    live: Vec<Live>,
}

enum Ev {
    Open(bool), // transparent?
    Close,
    Semi,
    Class(usize),
    Bind(usize),
    Sync,
    Blocking(&'static str),
    Marker,
    Mutation(usize),
    Drop(String),
    Call(String),
}

/// Scan one file against the catalogue. `rel` is the workspace-relative
/// path used for scope filtering.
pub fn scan_file(path: &Path, rel: &str, cat: &Catalogue) -> io::Result<FileFacts> {
    let text = fs::read_to_string(path)?;
    let lines: Vec<&str> = text.lines().collect();
    let flags = lint::test_flags(&lines);

    let in_scope = |scopes: &[String]| scopes.iter().any(|s| rel.starts_with(s.as_str()));
    let classes: Vec<(usize, &str)> = cat
        .classes
        .iter()
        .enumerate()
        .filter(|(_, c)| in_scope(&c.scopes))
        .flat_map(|(i, c)| c.patterns.iter().map(move |p| (i, p.as_str())))
        .collect();
    let bindings: Vec<(usize, &str)> = cat
        .bindings
        .iter()
        .enumerate()
        .filter(|(_, b)| in_scope(&b.scopes))
        .map(|(i, b)| (i, b.pattern.as_str()))
        .collect();
    let mutations: Vec<(usize, &str)> = cat
        .mutations
        .iter()
        .enumerate()
        .filter(|(_, m)| in_scope(&m.scopes))
        .map(|(i, m)| (i, m.pattern.as_str()))
        .collect();
    let relaxed_in_scope = !rel.starts_with("crates/obs/src");

    let mut out = FileFacts {
        file: rel.to_string(),
        fns: Vec::new(),
        relaxed: Vec::new(),
    };

    let mut depth: usize = 0;
    let mut in_string = false;
    let mut pending_fn: Option<(String, usize, usize)> = None; // name, depth, line
    let mut cur: Option<FnCtx> = None;

    for (i, raw) in lines.iter().enumerate() {
        let lineno = i + 1;
        let is_test = flags[i];
        let stripped = strip(raw, &mut in_string);
        let code = stripped.trim();

        if !is_test && relaxed_in_scope && stripped.contains(PAT_RELAXED) {
            out.relaxed.push(lineno);
        }

        // Function-definition registration (also marks this a signature
        // line: patterns and calls on it are skipped).
        let mut sig_line = false;
        if !is_test && cur.is_none() {
            if let Some(p) = find_fn_kw(&stripped) {
                let rest = &stripped[p + 3..];
                let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
                if !name.is_empty() {
                    pending_fn = Some((name, depth, lineno));
                    sig_line = true;
                }
            }
        } else if !is_test && find_fn_kw(&stripped).is_some() {
            sig_line = true; // nested item: don't extract facts from its signature
        }

        // Collect positioned events.
        let mut evs: Vec<(usize, Ev)> = Vec::new();
        {
            let sb = stripped.as_bytes();
            for (p, &c) in sb.iter().enumerate() {
                match c {
                    b'{' => evs.push((p, Ev::Open(code == "{"))),
                    b'}' => evs.push((p, Ev::Close)),
                    b';' => evs.push((p, Ev::Semi)),
                    _ => {}
                }
            }
        }

        let mut spans: Vec<(usize, usize)> = Vec::new(); // suppression spans
        if !is_test && !sig_line && cur.is_some() {
            for &(ci, pat) in &classes {
                for (p, _) in stripped.match_indices(pat) {
                    evs.push((p, Ev::Class(ci)));
                    spans.push((p, p + pat.len()));
                }
            }
            for &(bi, pat) in &bindings {
                for (p, _) in stripped.match_indices(pat) {
                    evs.push((p, Ev::Bind(bi)));
                    spans.push((p, p + pat.len()));
                }
            }
            for &pat in SYNC_PATS {
                for (p, _) in stripped.match_indices(pat) {
                    evs.push((p, Ev::Sync));
                    spans.push((p, p + pat.len()));
                }
            }
            for &pat in BLOCKING_PATS {
                for (p, _) in stripped.match_indices(pat) {
                    // `.wait(` would double-report `.wait_until(` etc. if the
                    // longer pattern also matched here; they are mutually
                    // exclusive by construction (char after the short stem
                    // differs), so no dedup needed.
                    evs.push((p, Ev::Blocking(pat)));
                    spans.push((p, p + pat.len()));
                }
            }
            for (p, _) in stripped.match_indices(PAT_DROP) {
                // `drop(x)` only; `.drop(` or `idrop(` would be a method.
                if p > 0 && is_ident(stripped.as_bytes()[p - 1] as char) {
                    continue;
                }
                let arg: String = stripped[p + PAT_DROP.len()..]
                    .chars()
                    .take_while(|&c| is_ident(c))
                    .collect();
                evs.push((p, Ev::Drop(arg)));
                spans.push((p, p + PAT_DROP.len()));
            }
            if stripped.contains(PAT_KIND_COMMIT) || stripped.contains(PAT_KIND_DECISION) {
                let writes = [PAT_APPEND, PAT_FRAME_PUSH];
                if let Some(p) = writes.iter().find_map(|pat| stripped.find(pat)) {
                    evs.push((p, Ev::Marker));
                }
            }
            for &(mi, pat) in &mutations {
                for (p, _) in stripped.match_indices(pat) {
                    evs.push((p, Ev::Mutation(mi)));
                    // Mutations do NOT suppress call resolution: `.retire(`
                    // is both a mutation and a resolvable call.
                }
            }
            // Call sites: identifier immediately before `(`.
            let sb = stripped.as_bytes();
            for (p, &c) in sb.iter().enumerate() {
                if c != b'(' {
                    continue;
                }
                let mut s = p;
                while s > 0 && is_ident(sb[s - 1] as char) {
                    s -= 1;
                }
                if s == p {
                    continue;
                }
                let name = &stripped[s..p];
                if name.as_bytes()[0].is_ascii_digit()
                    || name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                {
                    continue;
                }
                if s > 0 && sb[s - 1] == b'!' {
                    continue; // macro
                }
                if KEYWORDS.contains(&name) || IGNORE_CALLS.contains(&name) {
                    continue;
                }
                // A matched class/binding/sync/blocking pattern overlapping
                // the `ident(` span owns this site: no call resolution.
                if spans.iter().any(|&(a, b)| s < b && a <= p) {
                    continue;
                }
                evs.push((p, Ev::Call(name.to_string())));
            }
        }

        evs.sort_by_key(|(p, _)| *p);

        for (_, ev) in evs {
            match ev {
                Ev::Open(transparent) => {
                    // Statement temporaries die when a block opens at their
                    // depth (`if x.lock().ok() {` releases before the body).
                    if let Some(ctx) = cur.as_mut() {
                        let mut idx = 0;
                        while idx < ctx.live.len() {
                            let kill = match ctx.live[idx].kind {
                                LiveKind::Transient { depth: d } => d == depth,
                                _ => false,
                            };
                            let promote = match ctx.live[idx].kind {
                                LiveKind::AwaitBrace { depth: d } => d == depth,
                                _ => false,
                            };
                            if kill {
                                ctx.live.remove(idx);
                            } else {
                                if promote {
                                    ctx.live[idx].kind = LiveKind::Scoped { depth };
                                }
                                idx += 1;
                            }
                        }
                    }
                    if cur.is_none() {
                        if let Some((name, d, line)) = pending_fn.take() {
                            if d == depth && !is_test {
                                cur = Some(FnCtx {
                                    name,
                                    line,
                                    decl_depth: depth,
                                    blocks: vec![Block {
                                        parent: None,
                                        control: true,
                                    }],
                                    stack: vec![0],
                                    events: Vec::new(),
                                    live: Vec::new(),
                                });
                            } else {
                                pending_fn = Some((name, d, line));
                            }
                        }
                    } else if let Some(ctx) = cur.as_mut() {
                        let parent = *ctx.stack.last().unwrap();
                        ctx.blocks.push(Block {
                            parent: Some(parent),
                            control: !transparent,
                        });
                        let id = ctx.blocks.len() - 1;
                        ctx.stack.push(id);
                    }
                    depth += 1;
                }
                Ev::Close => {
                    depth = depth.saturating_sub(1);
                    let mut done = false;
                    if let Some(ctx) = cur.as_mut() {
                        ctx.live.retain(|g| match g.kind {
                            LiveKind::Bound { depth: d } | LiveKind::Transient { depth: d } => {
                                depth >= d
                            }
                            LiveKind::AwaitBrace { depth: d } | LiveKind::Scoped { depth: d } => {
                                depth > d
                            }
                        });
                        if depth == ctx.decl_depth {
                            done = true;
                        } else if ctx.stack.len() > 1 {
                            ctx.stack.pop();
                        }
                    }
                    if done {
                        out.fns.push(finish(cur.take().unwrap()));
                    }
                }
                Ev::Semi => {
                    if let Some(ctx) = cur.as_mut() {
                        ctx.live.retain(|g| match g.kind {
                            LiveKind::Transient { depth: d }
                            | LiveKind::AwaitBrace { depth: d } => d != depth,
                            _ => true,
                        });
                    }
                    if pending_fn.as_ref().is_some_and(|&(_, d, _)| d == depth) {
                        pending_fn = None; // trait method declaration
                    }
                }
                Ev::Class(class) => {
                    if let Some(ctx) = cur.as_mut() {
                        let held = snapshot(&ctx.live);
                        push_event(ctx, lineno, EventKind::Acquire { class }, held);
                        let (binding, bound) = binding_of(code);
                        ctx.live.push(Live {
                            class,
                            line: lineno,
                            binding,
                            kind: if bound {
                                LiveKind::Bound { depth }
                            } else {
                                LiveKind::Transient { depth }
                            },
                        });
                    }
                }
                Ev::Bind(bi) => {
                    if let Some(ctx) = cur.as_mut() {
                        let held = snapshot(&ctx.live);
                        push_event(ctx, lineno, EventKind::Binding { binding: bi }, held);
                        if cat.bindings[bi].scoped {
                            for &class in &cat.bindings[bi].acquires {
                                ctx.live.push(Live {
                                    class,
                                    line: lineno,
                                    binding: None,
                                    kind: LiveKind::AwaitBrace { depth },
                                });
                            }
                        }
                    }
                }
                Ev::Sync => {
                    if let Some(ctx) = cur.as_mut() {
                        let held = snapshot(&ctx.live);
                        push_event(ctx, lineno, EventKind::Sync, held);
                    }
                }
                Ev::Blocking(desc) => {
                    if let Some(ctx) = cur.as_mut() {
                        let mut exempt = Vec::new();
                        if OWN_GUARD_WAITS.contains(&desc) {
                            let args = stripped
                                .find(desc)
                                .map(|p| &stripped[p + desc.len()..])
                                .unwrap_or("");
                            for g in &ctx.live {
                                if let Some(b) = &g.binding {
                                    if !b.is_empty() && word_in(args, b) {
                                        exempt.push(g.class);
                                    }
                                }
                            }
                        }
                        let held = snapshot(&ctx.live);
                        push_event(ctx, lineno, EventKind::Blocking { desc, exempt }, held);
                    }
                }
                Ev::Marker => {
                    if let Some(ctx) = cur.as_mut() {
                        let held = snapshot(&ctx.live);
                        push_event(ctx, lineno, EventKind::CommitMarker, held);
                    }
                }
                Ev::Mutation(mi) => {
                    if let Some(ctx) = cur.as_mut() {
                        let held = snapshot(&ctx.live);
                        push_event(ctx, lineno, EventKind::Mutation { mutation: mi }, held);
                    }
                }
                Ev::Drop(ident) => {
                    if let Some(ctx) = cur.as_mut() {
                        if !ident.is_empty() {
                            ctx.live
                                .retain(|g| g.binding.as_deref() != Some(ident.as_str()));
                        }
                    }
                }
                Ev::Call(name) => {
                    if let Some(ctx) = cur.as_mut() {
                        let held = snapshot(&ctx.live);
                        push_event(ctx, lineno, EventKind::Call { name }, held);
                    }
                }
            }
        }
    }
    Ok(out)
}

fn finish(ctx: FnCtx) -> FnFact {
    FnFact {
        name: ctx.name,
        line: ctx.line,
        blocks: ctx.blocks,
        events: ctx.events,
    }
}

fn push_event(ctx: &mut FnCtx, line: usize, kind: EventKind, held: Vec<HeldGuard>) {
    let block = *ctx.stack.last().unwrap();
    ctx.events.push(Event {
        line,
        block,
        kind,
        held,
    });
}

fn snapshot(live: &[Live]) -> Vec<HeldGuard> {
    live.iter()
        .map(|g| HeldGuard {
            class: g.class,
            line: g.line,
        })
        .collect()
}

/// `(binding, is_bound)` for an acquisition on a line: `let [mut] x = …`
/// and `x = …` (rebind) give a block-scoped guard; everything else is a
/// statement temporary.
fn binding_of(code: &str) -> (Option<String>, bool) {
    if let Some(rest) = code.strip_prefix("let ") {
        let rest = rest.strip_prefix("mut ").unwrap_or(rest);
        let ident: String = rest.chars().take_while(|&c| is_ident(c)).collect();
        let b = if ident.is_empty() { None } else { Some(ident) };
        return (b, true);
    }
    let ident: String = code.chars().take_while(|&c| is_ident(c)).collect();
    if !ident.is_empty() {
        let rest = code[ident.len()..].trim_start();
        if rest.starts_with("= ") || rest.starts_with("=\t") {
            return (Some(ident), true);
        }
    }
    (None, false)
}

/// First `fn ` keyword position at a word boundary, or None.
fn find_fn_kw(s: &str) -> Option<usize> {
    let b = s.as_bytes();
    for (p, _) in s.match_indices("fn ") {
        if p == 0 || !is_ident(b[p - 1] as char) {
            // Require an identifier to follow.
            if s[p + 3..]
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            {
                return Some(p);
            }
        }
    }
    None
}

/// Whole-word containment of `w` in `s`.
fn word_in(s: &str, w: &str) -> bool {
    let b = s.as_bytes();
    for (p, _) in s.match_indices(w) {
        let before = p == 0 || !is_ident(b[p - 1] as char);
        let after = p + w.len() >= s.len() || !is_ident(b[p + w.len()] as char);
        if before && after {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_blanks_strings_and_char_literals() {
        let mut ins = false;
        let s = strip("match c { '{' => x, _ => y } // brace", &mut ins);
        assert!(!s.contains("brace"));
        assert_eq!(s.matches('{').count(), 1, "char-literal brace blanked: {s}");
        let s = strip("let m = \"a { b ; c }\";", &mut ins);
        assert!(!s.contains("a {"), "string interior blanked: {s}");
        assert!(s.ends_with(';'));
    }

    #[test]
    fn strip_carries_multiline_strings() {
        let mut ins = false;
        let _ = strip("let x = \"start \\", &mut ins);
        assert!(ins, "backslash continuation keeps string open");
        let s = strip("  continues { here; }\"", &mut ins);
        assert!(!ins);
        assert!(
            !s.contains('{') && !s.contains(';'),
            "string body blanked: {s}"
        );
    }

    #[test]
    fn binding_forms() {
        assert_eq!(
            binding_of("let mut g = x.lock();"),
            (Some("g".into()), true)
        );
        assert_eq!(
            binding_of("let _log = x.lock();"),
            (Some("_log".into()), true)
        );
        assert_eq!(
            binding_of("g = self.state.lock();"),
            (Some("g".into()), true)
        );
        assert_eq!(binding_of("self.state.lock();"), (None, false));
        assert_eq!(
            binding_of("if self.txns.lock().is_empty() {"),
            (None, false)
        );
    }

    #[test]
    fn fn_keyword_detection() {
        assert!(find_fn_kw("pub fn commit(&mut self) {").is_some());
        assert!(find_fn_kw("    fn helper() -> bool {").is_some());
        assert!(find_fn_kw("pub(crate) const fn rank() -> u8 {").is_some());
        assert!(find_fn_kw("let f = baffn (x);").is_none());
        assert!(
            find_fn_kw("// fn in comment").is_some(),
            "comments stripped before call"
        );
    }

    #[test]
    fn word_in_is_word_bounded() {
        assert!(word_in("g.inner_mut(), deadline", "g"));
        assert!(!word_in("guard.inner_mut()", "g"));
        assert!(word_in("&mut g)", "g"));
    }
}
