//! Parser for the `LOCKS.md` lock-class catalogue.
//!
//! The catalogue is markdown, read the same way `METRICS.md` is read by the
//! `metric-catalogue` lint: only table rows / list items inside the four
//! `##` sections matter, and within a cell only the backticked spans are
//! values — everything else is commentary. See `LOCKS.md` at the workspace
//! root for the format contract.

use std::fs;
use std::io;
use std::path::Path;

/// One declared lock class.
#[derive(Debug, Clone)]
pub struct LockClass {
    /// Class name, e.g. `txn-stripe`.
    pub name: String,
    /// Source patterns whose presence on a line is an acquisition.
    pub patterns: Vec<String>,
    /// Workspace-relative path prefixes the patterns apply under.
    pub scopes: Vec<String>,
    /// No blocking operation may run while a guard of this class is live.
    pub no_block: bool,
}

/// A call pattern declared to acquire classes on the caller's behalf.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Source pattern of the call site.
    pub pattern: String,
    /// Path prefixes the pattern applies under.
    pub scopes: Vec<String>,
    /// The call itself may block.
    pub blocking: bool,
    /// Guards live for the closure argument (`.with_ready(`-style) rather
    /// than released before the call returns.
    pub scoped: bool,
    /// Indices into [`Catalogue::classes`].
    pub acquires: Vec<usize>,
}

/// A commit-point mutation pattern for the durability-dominator rule.
#[derive(Debug, Clone)]
pub struct Mutation {
    /// Source pattern of the mutation site.
    pub pattern: String,
    /// Path prefixes the pattern applies under.
    pub scopes: Vec<String>,
}

/// The parsed, validated catalogue.
#[derive(Debug)]
pub struct Catalogue {
    /// Declared classes, in file order.
    pub classes: Vec<LockClass>,
    /// Declared order edges after wildcard expansion, as class indices.
    pub order: Vec<(usize, usize)>,
    /// Transitive closure of `order`: `allowed[a][b]` ⇔ `b` may be acquired
    /// while `a` is held.
    pub allowed: Vec<Vec<bool>>,
    /// Declared call-site bindings.
    pub bindings: Vec<Binding>,
    /// Declared commit-point mutations.
    pub mutations: Vec<Mutation>,
}

/// Read and validate `<root>/LOCKS.md`. Errors (missing file, unknown class
/// name, cyclic declared order) are hard failures — an unparseable catalogue
/// must fail CI, not silently disable the rules.
pub fn load(root: &Path) -> io::Result<Catalogue> {
    let path = root.join("LOCKS.md");
    let text = fs::read_to_string(&path).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("cannot read lock catalogue {}: {e}", path.display()),
        )
    })?;
    parse(&text).map_err(|msg| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {msg}", path.display()),
        )
    })
}

/// Backticked spans in `s`, in order.
fn ticked(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut parts = s.split('`');
    parts.next(); // before the first backtick
    while let (Some(span), next) = (parts.next(), parts.next()) {
        if !span.is_empty() {
            out.push(span.to_string());
        }
        if next.is_none() {
            break;
        }
    }
    out
}

/// Cells of a markdown table row (`| a | b |` → `["a", "b"]`), or `None`
/// when `line` is not a row. Header and separator rows are rows too — the
/// callers skip cells without backticks.
fn row_cells(line: &str) -> Option<Vec<String>> {
    let t = line.trim();
    let body = t.strip_prefix('|')?;
    let body = body.strip_suffix('|').unwrap_or(body);
    Some(body.split('|').map(|c| c.trim().to_string()).collect())
}

fn parse(text: &str) -> Result<Catalogue, String> {
    #[derive(PartialEq)]
    enum Section {
        None,
        Classes,
        Order,
        Bindings,
        Durability,
    }
    let mut section = Section::None;
    let mut classes: Vec<LockClass> = Vec::new();
    let mut order_decl: Vec<(String, String)> = Vec::new();
    let mut binding_rows: Vec<(String, Vec<String>, Vec<String>)> = Vec::new();
    let mut mutations: Vec<Mutation> = Vec::new();

    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if let Some(head) = line.strip_prefix("## ") {
            section = match head.trim() {
                "Classes" => Section::Classes,
                "Order" => Section::Order,
                "Bindings" => Section::Bindings,
                "Durability" => Section::Durability,
                _ => Section::None,
            };
            continue;
        }
        match section {
            Section::Classes => {
                let Some(cells) = row_cells(line) else {
                    continue;
                };
                if cells.len() < 3 || ticked(&cells[0]).is_empty() {
                    continue; // header / separator
                }
                let names = ticked(&cells[0]);
                let patterns = ticked(&cells[1]);
                let scopes = ticked(&cells[2]);
                if names.len() != 1 {
                    return Err(format!("line {lineno}: class row needs exactly one name"));
                }
                if patterns.is_empty() || scopes.is_empty() {
                    return Err(format!(
                        "line {lineno}: class `{}` needs patterns and a scope",
                        names[0]
                    ));
                }
                let attrs = cells.get(3).map(|c| ticked(c)).unwrap_or_default();
                classes.push(LockClass {
                    name: names[0].clone(),
                    patterns,
                    scopes,
                    no_block: attrs.iter().any(|a| a == "no-block"),
                });
            }
            Section::Order => {
                let t = line.trim();
                if !t.starts_with('-') {
                    continue;
                }
                let vals = ticked(t);
                if vals.len() < 2 {
                    continue;
                }
                if !t.contains('<') {
                    return Err(format!("line {lineno}: order item must be `a` < `b`"));
                }
                order_decl.push((vals[0].clone(), vals[1].clone()));
            }
            Section::Bindings => {
                let Some(cells) = row_cells(line) else {
                    continue;
                };
                if cells.len() < 3 || ticked(&cells[0]).is_empty() {
                    continue;
                }
                let pats = ticked(&cells[0]);
                if pats.len() != 1 {
                    return Err(format!(
                        "line {lineno}: binding row needs exactly one pattern"
                    ));
                }
                binding_rows.push((pats[0].clone(), ticked(&cells[1]), ticked(&cells[2])));
            }
            Section::Durability => {
                let Some(cells) = row_cells(line) else {
                    continue;
                };
                if cells.len() < 2 || ticked(&cells[0]).is_empty() {
                    continue;
                }
                let pats = ticked(&cells[0]);
                let scopes = ticked(&cells[1]);
                if pats.len() != 1 || scopes.is_empty() {
                    return Err(format!(
                        "line {lineno}: durability row needs one pattern and a scope"
                    ));
                }
                mutations.push(Mutation {
                    pattern: pats[0].clone(),
                    scopes,
                });
            }
            Section::None => {}
        }
    }

    if classes.is_empty() {
        return Err("no classes declared".into());
    }
    let idx = |name: &str| -> Result<usize, String> {
        classes
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| format!("unknown class `{name}`"))
    };

    // Wildcard expansion: `* < c` means every class except wildcard targets
    // themselves (two sinks must not be forced into a cycle with each other).
    let wildcard_targets: Vec<usize> = order_decl
        .iter()
        .filter(|(a, _)| a == "*")
        .map(|(_, b)| idx(b))
        .collect::<Result<_, _>>()?;
    let mut order: Vec<(usize, usize)> = Vec::new();
    for (a, b) in &order_decl {
        let b = idx(b)?;
        if a == "*" {
            for i in 0..classes.len() {
                if i != b && !wildcard_targets.contains(&i) {
                    order.push((i, b));
                }
            }
        } else {
            order.push((idx(a)?, b));
        }
    }
    order.sort_unstable();
    order.dedup();

    // Transitive closure + cycle check.
    let n = classes.len();
    let mut allowed = vec![vec![false; n]; n];
    for &(a, b) in &order {
        allowed[a][b] = true;
    }
    for k in 0..n {
        let reach_k = allowed[k].clone();
        for row in allowed.iter_mut() {
            if row[k] {
                for (dst, &via_k) in row.iter_mut().zip(&reach_k) {
                    if via_k {
                        *dst = true;
                    }
                }
            }
        }
    }
    for (a, row) in allowed.iter().enumerate() {
        if row[a] {
            return Err(format!(
                "declared order has a cycle through `{}`",
                classes[a].name
            ));
        }
    }

    let mut bindings = Vec::new();
    for (pattern, scopes, effects) in binding_rows {
        let mut b = Binding {
            pattern,
            scopes,
            blocking: false,
            scoped: false,
            acquires: Vec::new(),
        };
        for e in &effects {
            match e.as_str() {
                "blocking" => b.blocking = true,
                "scoped" => b.scoped = true,
                other => b.acquires.push(idx(other)?),
            }
        }
        if b.scopes.is_empty() {
            return Err(format!("binding `{}` needs a scope", b.pattern));
        }
        bindings.push(b);
    }

    Ok(Catalogue {
        classes,
        order,
        allowed,
        bindings,
        mutations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# sample
## Classes
| class | patterns | scope | attrs |
|---|---|---|---|
| `a-lock` | `.alpha()` | `crates/x/src` | `no-block` |
| `b-lock` | `.beta()` `.beta_mut()` | `crates/x/src` | |
| `sink` | `.sink()` | `crates` | `no-block` |
## Order
- `a-lock` < `b-lock` — because
- `*` < `sink`
## Bindings
| pattern | scope | effects |
|---|---|---|
| `.combo(` | `crates/x/src` | `blocking` `a-lock` `b-lock` |
## Durability
| pattern | scope |
|---|---|
| `.mutate(` | `crates/x/src` |
";

    #[test]
    fn parses_all_sections() {
        let c = parse(SAMPLE).unwrap();
        assert_eq!(c.classes.len(), 3);
        assert!(c.classes[0].no_block);
        assert!(!c.classes[1].no_block);
        assert_eq!(c.classes[1].patterns.len(), 2);
        let (a, b, s) = (0, 1, 2);
        assert!(c.allowed[a][b]);
        assert!(!c.allowed[b][a]);
        // Wildcard: both non-sink classes precede the sink; sink not self-edged.
        assert!(c.allowed[a][s] && c.allowed[b][s]);
        assert!(!c.allowed[s][s]);
        assert_eq!(c.bindings.len(), 1);
        assert!(c.bindings[0].blocking);
        assert_eq!(c.bindings[0].acquires, vec![a, b]);
        assert_eq!(c.mutations.len(), 1);
    }

    #[test]
    fn transitive_closure_is_applied() {
        let text = SAMPLE.replace(
            "- `*` < `sink`",
            "- `b-lock` < `sink`\n- `x` < `y`", // second line ignored: no backtick pair? keep valid
        );
        // Replace the bogus extra line with nothing; build a 3-chain instead.
        let text = text.replace("- `x` < `y`", "");
        let c = parse(&text).unwrap();
        assert!(c.allowed[0][2], "a < b < sink implies a < sink");
    }

    #[test]
    fn unknown_class_in_order_is_an_error() {
        let text = SAMPLE.replace("- `a-lock` < `b-lock` — because", "- `nope` < `b-lock`");
        assert!(parse(&text).unwrap_err().contains("unknown class"));
    }

    #[test]
    fn declared_cycle_is_an_error() {
        let text = SAMPLE.replace("- `*` < `sink`", "- `b-lock` < `a-lock`");
        assert!(parse(&text).unwrap_err().contains("cycle"));
    }

    #[test]
    fn same_class_edge_is_a_cycle() {
        let text = SAMPLE.replace("- `*` < `sink`", "- `a-lock` < `a-lock`");
        assert!(parse(&text).unwrap_err().contains("cycle"));
    }
}
