//! Semantic analysis: AST → resolved [`Problem`].
//!
//! Checks performed:
//!
//! * duplicate variable names and duplicate flow names;
//! * unresolvable symbolic endpoint names;
//! * attribute references to unknown flows;
//! * `size` reference cycles (rate cycles are *allowed* — they express
//!   coupled rates, as in the paper's daisy-chain example);
//! * degenerate flows (`disk -> disk`, variable used as its own pool value).

use std::cell::RefCell;
use std::collections::HashMap;

use crate::ast::{AttrKind, EndpointAst, Expr, FlowDef, FlowRef, Query, RefAttr, VarDecl};
use crate::error::{LangError, Span};
use crate::name::Name;
use crate::problem::{Address, Endpoint, ExprR, Flow, FlowId, Problem, Value, VarId, Variable};

/// Resolves symbolic endpoint names to addresses.
pub trait Resolver {
    /// Returns the address for `name`, or `None` if unknown.
    fn resolve(&self, name: &str) -> Option<Address>;
}

/// A resolver backed by an explicit name → address map.
#[derive(Clone, Debug, Default)]
pub struct MapResolver {
    map: HashMap<String, Address>,
}

impl MapResolver {
    /// Creates an empty resolver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a mapping, returning `self` for chaining.
    pub fn with(mut self, name: impl Into<String>, addr: Address) -> Self {
        self.map.insert(name.into(), addr);
        self
    }
}

impl Resolver for MapResolver {
    fn resolve(&self, name: &str) -> Option<Address> {
        self.map.get(name).copied()
    }
}

/// A resolver that assigns a fresh address to every new name it sees.
///
/// Convenient for tests and examples where hosts are purely symbolic.
/// Addresses are allocated sequentially starting from `10.0.0.1`.
#[derive(Debug, Default)]
pub struct InterningResolver {
    inner: RefCell<(HashMap<String, Address>, u32)>,
}

impl InterningResolver {
    /// Creates an interning resolver starting at `10.0.0.1`.
    pub fn new() -> Self {
        InterningResolver {
            inner: RefCell::new((HashMap::new(), 0x0A00_0001)),
        }
    }
}

impl Resolver for InterningResolver {
    fn resolve(&self, name: &str) -> Option<Address> {
        let mut inner = self.inner.borrow_mut();
        if let Some(addr) = inner.0.get(name) {
            return Some(*addr);
        }
        let addr = Address(inner.1);
        inner.1 += 1;
        inner.0.insert(name.to_string(), addr);
        Some(addr)
    }
}

/// Resolves a parsed query into a problem instance.
///
/// # Examples
///
/// ```
/// use cloudtalk_lang::{parse_query, resolve, MapResolver, Address};
///
/// let q = parse_query("A = (10.0.0.2 10.0.0.3)\nf1 A -> client size 256M").unwrap();
/// let resolver = MapResolver::new().with("client", Address(0x0A000001));
/// let problem = resolve(&q, &resolver).unwrap();
/// assert_eq!(problem.vars.len(), 1);
/// assert_eq!(problem.flows.len(), 1);
/// ```
pub fn resolve(query: &Query, resolver: &impl Resolver) -> Result<Problem, LangError> {
    resolve_parts(query.var_decls(), query.flows(), resolver)
}

/// [`resolve`] over a query's declarations and flows wherever they are
/// kept: the statements of a parsed [`Query`], or the two lists of a
/// [`crate::builder::QueryBuilder`]. Every vector of the problem is sized
/// once, and names are compared in place: nothing is cloned, hashed or
/// allocated per identifier.
pub(crate) fn resolve_parts<'a>(
    decls: impl Iterator<Item = &'a VarDecl> + Clone,
    flows: impl Iterator<Item = &'a FlowDef> + Clone,
    resolver: &impl Resolver,
) -> Result<Problem, LangError> {
    let var_names = NameIndex::new(
        decls
            .clone()
            .flat_map(|d| d.names.iter().map(|n| Some(&n.text))),
    );
    // Flow names are indexed before any flow is resolved, so references
    // can be forward.
    let flow_names = NameIndex::new(flows.clone().map(|f| f.name.as_ref().map(|n| &n.text)));
    let mut problem = Problem {
        vars: Vec::with_capacity(var_names.len),
        flows: Vec::with_capacity(flow_names.len),
        distinct: true,
    };

    // Pass 1: variables.
    for (pool, decl) in decls.enumerate() {
        let mut candidates = Vec::with_capacity(decl.values.len());
        for value in &decl.values {
            candidates.push(match value {
                EndpointAst::Addr { addr: 0, span } => {
                    return Err(LangError::new(
                        "`0.0.0.0` (unknown) cannot be a candidate value",
                        *span,
                    ));
                }
                EndpointAst::Addr { addr, .. } => Value::Addr(Address(*addr)),
                EndpointAst::Disk { .. } => Value::Disk,
                EndpointAst::Name(ident) => {
                    let addr = resolver.resolve(&ident.text).ok_or_else(|| {
                        LangError::new(
                            format!("unknown host `{}` in value pool", ident.text),
                            ident.span,
                        )
                    })?;
                    Value::Addr(addr)
                }
            });
        }
        let last = decl.names.len().saturating_sub(1);
        for (i, name) in decl.names.iter().enumerate() {
            if var_names.first_repeat == Some(problem.vars.len()) {
                return Err(LangError::new(
                    format!("variable `{}` declared twice", name.text),
                    name.span,
                ));
            }
            problem.vars.push(Variable {
                name: name.text.clone(),
                // Same-pool variables each own a copy; the last takes the
                // original.
                candidates: if i == last {
                    std::mem::take(&mut candidates)
                } else {
                    candidates.clone()
                },
                pool,
            });
        }
    }

    // Pass 2: flow names.
    for (idx, flow) in flows.clone().enumerate() {
        if let Some(name) = &flow.name {
            if flow_names.first_repeat == Some(idx) {
                return Err(LangError::new(
                    format!("flow `{}` defined twice", name.text),
                    name.span,
                ));
            }
            if var_names.find(&name.text).is_some() {
                return Err(LangError::new(
                    format!("`{}` is both a variable and a flow name", name.text),
                    name.span,
                ));
            }
        }
    }

    // Pass 3: flows.
    let mut size_refs = false;
    for flow_def in flows.clone() {
        let src = resolve_endpoint(&flow_def.src, &var_names, resolver)?;
        let dst = resolve_endpoint(&flow_def.dst, &var_names, resolver)?;
        if src == Endpoint::Disk && dst == Endpoint::Disk {
            return Err(LangError::new(
                "flow cannot have `disk` as both endpoints",
                flow_def.span,
            ));
        }
        let mut flow = Flow::new(flow_def.name.as_ref().map(|n| n.text.clone()), src, dst);
        for attr in &flow_def.attrs {
            let expr = resolve_expr(&attr.value, &flow_names)?;
            if attr.kind == AttrKind::Size {
                expr.for_each_ref(&mut |of, _| size_refs |= of == RefAttr::Size);
            }
            flow.set_attr(attr.kind, expr);
        }
        problem.flows.push(flow);
    }

    // Only a `size` that mentions `sz(…)` can close a cycle; most queries
    // have none and skip the walk and its scratch.
    if size_refs {
        if let Err((closing, at)) = check_size_cycles(&problem.flows) {
            let name = match &problem.flows[at].name {
                Some(name) => name.to_string(),
                None => format!("#{at}"),
            };
            let span = flows.clone().nth(closing).map_or(Span::DUMMY, |f| f.span);
            return Err(LangError::new(
                format!("cyclic `size` reference involving flow `{name}`"),
                span,
            ));
        }
    }
    Ok(problem)
}

/// Up to this many names of one kind — variables, or flows — a lookup
/// scans them: a few cache lines, cheaper than hashing one name. A query
/// with more gets a sorted index instead, so resolving stays
/// `O(n log n)` in the length of whatever text a tenant sends.
const SCAN_MAX: usize = 32;

/// Name → position in declaration order, over the variables or the flows
/// of one query, read off the query once.
struct NameIndex<'a> {
    /// How many positions there are.
    len: usize,
    /// Every position's name in order while `len <= SCAN_MAX`; `None` is
    /// an unnamed flow.
    few: [Option<&'a Name>; SCAN_MAX],
    /// `(name, position)` sorted once `len > SCAN_MAX`.
    sorted: Vec<(&'a Name, usize)>,
    /// The first position, in declaration order, whose name repeats an
    /// earlier one.
    first_repeat: Option<usize>,
}

impl<'a> NameIndex<'a> {
    fn new(names: impl Iterator<Item = Option<&'a Name>>) -> Self {
        let mut index = NameIndex {
            len: 0,
            few: [None; SCAN_MAX],
            sorted: Vec::new(),
            first_repeat: None,
        };
        for (at, name) in names.enumerate() {
            match index.few.get_mut(at) {
                Some(slot) => *slot = name,
                None => index.sorted.extend(name.map(|n| (n, at))),
            }
            index.len = at + 1;
        }
        index.first_repeat = if index.len <= SCAN_MAX {
            let few = &index.few[..index.len];
            (1..few.len()).find(|&at| few[at].is_some() && few[..at].contains(&few[at]))
        } else {
            let few = index.few.iter().enumerate();
            index
                .sorted
                .extend(few.filter_map(|(at, n)| Some(((*n)?, at))));
            index.sorted.sort_unstable();
            // Equal names are neighbours, earliest first.
            index
                .sorted
                .windows(2)
                .filter(|pair| pair[0].0 == pair[1].0)
                .map(|pair| pair[1].1)
                .min()
        };
        index
    }

    /// The position `name` was declared at. Only meaningful once the
    /// caller has rejected `first_repeat`.
    #[inline]
    fn find(&self, name: &Name) -> Option<usize> {
        if self.len <= SCAN_MAX {
            return self.few[..self.len].iter().position(|n| *n == Some(name));
        }
        let at = self.sorted.binary_search_by(|(n, _)| (*n).cmp(name)).ok()?;
        Some(self.sorted[at].1)
    }
}

#[inline(always)]
fn resolve_endpoint(
    ep: &EndpointAst,
    vars: &NameIndex<'_>,
    resolver: &impl Resolver,
) -> Result<Endpoint, LangError> {
    Ok(match ep {
        EndpointAst::Addr { addr: 0, .. } => Endpoint::Unknown,
        EndpointAst::Addr { addr, .. } => Endpoint::Addr(Address(*addr)),
        EndpointAst::Disk { .. } => Endpoint::Disk,
        EndpointAst::Name(ident) => {
            if let Some(var) = vars.find(&ident.text) {
                Endpoint::Var(VarId(var))
            } else if let Some(addr) = resolver.resolve(&ident.text) {
                Endpoint::Addr(addr)
            } else {
                return Err(LangError::new(
                    format!(
                        "`{}` is neither a declared variable nor a known host",
                        ident.text
                    ),
                    ident.span,
                ));
            }
        }
    })
}

/// Resolves an attribute expression. A literal or a reference — nearly
/// every value — is resolved in line, without a call.
#[inline(always)]
fn resolve_expr(expr: &Expr, flows: &NameIndex<'_>) -> Result<ExprR, LangError> {
    Ok(match expr {
        Expr::Literal { value, .. } => ExprR::Literal(*value),
        Expr::Ref { attr, flow, span } => {
            let id = match flow {
                FlowRef::Named(ident) => flows.find(&ident.text).ok_or_else(|| {
                    LangError::new(format!("reference to unknown flow `{}`", ident.text), *span)
                })?,
                FlowRef::Index { index, span } => {
                    let n_flows = flows.len;
                    if *index == 0 || *index > n_flows {
                        return Err(LangError::new(
                            format!("flow index {index} out of range (query has {n_flows} flows)"),
                            *span,
                        ));
                    }
                    index - 1
                }
            };
            ExprR::Ref(*attr, FlowId(id))
        }
        Expr::Binary { op, lhs, rhs } => ExprR::Binary(
            *op,
            Box::new(resolve_operand(lhs, flows)?),
            Box::new(resolve_operand(rhs, flows)?),
        ),
    })
}

/// [`resolve_expr`] below an operator.
fn resolve_operand(expr: &Expr, flows: &NameIndex<'_>) -> Result<ExprR, LangError> {
    resolve_expr(expr, flows)
}

/// Rejects cyclic `size` references (`sz(f)` chains must be a DAG; a flow's
/// size depending on itself has no solution). The error is `(closing, at)`:
/// flow `closing`'s size refers back to flow `at`, which is still being
/// walked.
fn check_size_cycles(flows: &[Flow]) -> Result<(), (usize, usize)> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }

    fn visit(flows: &[Flow], marks: &mut [Mark], idx: usize) -> Result<(), (usize, usize)> {
        marks[idx] = Mark::Grey;
        if let Some(expr) = flows[idx].attr(AttrKind::Size) {
            // A reference back into the walk is reported before any other
            // is followed.
            let mut found = Ok(());
            expr.for_each_ref(&mut |attr, flow| {
                if attr == RefAttr::Size && marks[flow.0] == Mark::Grey {
                    found = Err((idx, flow.0));
                }
            });
            found?;
            expr.for_each_ref(&mut |attr, flow| {
                if found.is_ok() && attr == RefAttr::Size && marks[flow.0] == Mark::White {
                    found = visit(flows, marks, flow.0);
                }
            });
            found?;
        }
        marks[idx] = Mark::Black;
        Ok(())
    }

    let mut marks = vec![Mark::White; flows.len()];
    for i in 0..flows.len() {
        if marks[i] == Mark::White {
            visit(flows, &mut marks, i)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    fn intern(src: &str) -> Result<Problem, LangError> {
        resolve(&parse_query(src).unwrap(), &InterningResolver::new())
    }

    #[test]
    fn resolves_figure2() {
        let p = intern("A = (10.0.0.2 10.0.0.3)\nf1 A -> 10.0.0.1 size 256M").unwrap();
        assert_eq!(p.vars.len(), 1);
        assert_eq!(p.vars[0].candidates.len(), 2);
        assert_eq!(p.flows[0].src, Endpoint::Var(VarId(0)));
        assert_eq!(p.flows[0].dst, Endpoint::Addr(Address(0x0A000001)));
    }

    #[test]
    fn chained_vars_share_pool() {
        let p = intern("B = C = D = (s1 s2 s3)").unwrap();
        assert_eq!(p.vars.len(), 3);
        assert!(p.vars.iter().all(|v| v.pool == 0));
        assert_eq!(p.vars[0].candidates, p.vars[2].candidates);
    }

    #[test]
    fn separate_decls_get_separate_pools() {
        let p = intern("A = (x y)\nB = (z w)").unwrap();
        assert_eq!(p.vars[0].pool, 0);
        assert_eq!(p.vars[1].pool, 1);
    }

    #[test]
    fn duplicate_variable_rejected() {
        let err = intern("A = (x y)\nA = (z)").unwrap_err();
        assert!(err.message.contains("declared twice"));
    }

    #[test]
    fn duplicate_flow_name_rejected() {
        let err = intern("f1 a -> b size 1\nf1 b -> a size 1").unwrap_err();
        assert!(err.message.contains("defined twice"));
    }

    #[test]
    fn unknown_flow_ref_rejected() {
        let err = intern("f1 a -> b size sz(f9)").unwrap_err();
        assert!(err.message.contains("unknown flow"));
    }

    #[test]
    fn index_references_resolve() {
        let p = intern("f1 a -> b size 100M\nf2 b -> c size sz(1)").unwrap();
        assert_eq!(
            p.flows[1].attr(AttrKind::Size),
            Some(&ExprR::Ref(crate::ast::RefAttr::Size, FlowId(0)))
        );
    }

    #[test]
    fn out_of_range_index_rejected() {
        let err = intern("f1 a -> b size sz(7)").unwrap_err();
        assert!(err.message.contains("out of range"));
    }

    #[test]
    fn rate_cycles_allowed() {
        // Coupled rates are the paper's idiom for pipelined transfers.
        let p = intern(
            "f1 disk -> a size 100M rate r(f2)\nf2 a -> b size sz(f1) rate r(f1)",
        );
        assert!(p.is_ok());
    }

    #[test]
    fn size_self_cycle_rejected() {
        let src = "f1 a -> b size sz(f2)\nf2 b -> c size sz(f1)";
        let err = intern(src).unwrap_err();
        assert!(err.message.contains("cyclic"));
        // Located at the flow whose `sz(…)` closes the cycle.
        assert_eq!(&src[err.span.start..err.span.end], "f2 b -> c size sz(f1)");
    }

    #[test]
    fn a_query_too_long_to_scan_resolves_like_a_short_one() {
        // Past `SCAN_MAX` names lookups go through the sorted index; ids,
        // forward references and both duplicate reports must not change.
        let n = 3 * SCAN_MAX;
        let mut src = String::new();
        for i in 0..n {
            src.push_str(&format!("v{i} = (10.0.0.{} 10.0.1.{})\n", i + 1, i + 1));
        }
        for i in 0..n {
            // Each flow names the next one, the last the first: all but one
            // reference is forward.
            src.push_str(&format!(
                "f{i} v{i} -> v{} rate r(f{})\n",
                n - 1 - i,
                (i + 1) % n
            ));
        }
        let p = intern(&src).unwrap();
        assert_eq!((p.vars.len(), p.flows.len()), (n, n));
        for (i, flow) in p.flows.iter().enumerate() {
            assert_eq!(flow.src, Endpoint::Var(VarId(i)));
            assert_eq!(flow.dst, Endpoint::Var(VarId(n - 1 - i)));
            assert_eq!(
                flow.attr(AttrKind::Rate),
                Some(&ExprR::Ref(RefAttr::Rate, FlowId((i + 1) % n)))
            );
        }

        // The first repeat in source order is the one reported, though two
        // later names repeat as well.
        let repeat_var = src
            .replacen("v40 =", "v7 =", 1)
            .replacen("v90 =", "v3 =", 1);
        let err = intern(&repeat_var).unwrap_err();
        assert!(err.message.contains("`v7` declared twice"), "{err}");
        assert!(err.span.start > src.find("v39 =").unwrap());
        let repeat_flow = src
            .replacen("\nf50 ", "\nf9 ", 1)
            .replacen("\nf80 ", "\nf2 ", 1);
        let err = intern(&repeat_flow).unwrap_err();
        assert!(err.message.contains("`f9` defined twice"), "{err}");
        let both = src.replacen("\nf70 ", "\nv5 ", 1);
        let err = intern(&both).unwrap_err();
        assert!(err.message.contains("both a variable and a flow"), "{err}");
        let unknown = src.replacen("r(f33)", "r(f333)", 1);
        let err = intern(&unknown).unwrap_err();
        assert!(err.message.contains("unknown flow `f333`"), "{err}");
    }

    #[test]
    fn disk_to_disk_rejected() {
        let err = intern("disk -> disk size 1").unwrap_err();
        assert!(err.message.contains("disk"));
    }

    #[test]
    fn unknown_source_resolves() {
        let p = intern("f1 0.0.0.0 -> a size 1G").unwrap();
        assert_eq!(p.flows[0].src, Endpoint::Unknown);
    }

    #[test]
    fn unknown_in_pool_rejected() {
        let err = intern("A = (0.0.0.0 10.0.0.1)").unwrap_err();
        assert!(err.message.contains("candidate"));
    }

    #[test]
    fn disk_allowed_in_pool() {
        let p = intern("A = (disk 10.0.0.1)\nf1 A -> 10.0.0.2 size 1M").unwrap();
        assert_eq!(p.vars[0].candidates[0], Value::Disk);
    }

    #[test]
    fn map_resolver_rejects_unknown_names() {
        let q = parse_query("f1 mystery -> 10.0.0.1 size 1").unwrap();
        let err = resolve(&q, &MapResolver::new()).unwrap_err();
        assert!(err.message.contains("mystery"));
    }

    #[test]
    fn variable_and_flow_name_collision_rejected() {
        let err = intern("A = (x y)\nA b -> c size 1").unwrap_err();
        assert!(err.message.contains("both a variable and a flow"));
    }

    #[test]
    fn mentioned_addresses_cover_pools_and_endpoints() {
        let p = intern("A = (10.0.0.5 10.0.0.6)\nf1 A -> 10.0.0.7 size 1").unwrap();
        let addrs = p.mentioned_addresses();
        assert_eq!(addrs.len(), 3);
    }
}
