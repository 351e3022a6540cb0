//! The resolved *problem instance*: what the CloudTalk server evaluates.
//!
//! Validation ([`crate::validate`]) turns a parsed [`crate::ast::Query`]
//! into a [`Problem`]: variables with concrete candidate pools, flows with
//! resolved endpoints, and attribute expressions whose flow references are
//! indices instead of names.

use std::fmt;

use crate::ast::{AttrKind, BinOp, RefAttr};
use crate::name::Name;

/// An opaque server address (rendered as a dotted quad, like the IPv4
/// addresses the real system uses).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Address(pub u32);

impl Address {
    /// The "unknown source" sentinel the paper writes as `0.0.0.0`.
    pub const UNKNOWN: Address = Address(0);
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = self.0;
        write!(
            f,
            "{}.{}.{}.{}",
            (a >> 24) & 0xFF,
            (a >> 16) & 0xFF,
            (a >> 8) & 0xFF,
            a & 0xFF
        )
    }
}

/// Index of a variable within a [`Problem`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub usize);

/// Index of a flow within a [`Problem`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub usize);

/// A candidate value a variable may be bound to.
///
/// Pools are usually addresses, but Table 1 allows `disk` as a value too
/// (e.g. "read from any of these servers *or* from the local disk").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Value {
    /// A concrete server.
    Addr(Address),
    /// The local disk of the flow's fixed peer endpoint.
    Disk,
}

/// A resolved variable: a name and its candidate pool.
#[derive(Clone, PartialEq, Debug)]
pub struct Variable {
    /// The variable's name as written in the query.
    pub name: Name,
    /// Candidate values, in declaration order.
    pub candidates: Vec<Value>,
    /// Pool id: variables declared together (`B = C = (…)`) share one and
    /// are bound to distinct values by default (paper §4.1).
    pub pool: usize,
}

impl Variable {
    /// Creates a variable over `candidates`, in pool `pool`.
    pub fn new(name: impl Into<Name>, candidates: Vec<Value>, pool: usize) -> Self {
        Variable {
            name: name.into(),
            candidates,
            pool,
        }
    }
}

/// A resolved flow endpoint.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Endpoint {
    /// A fixed server.
    Addr(Address),
    /// The local disk of the flow's other endpoint.
    Disk,
    /// "Unknown source" (`0.0.0.0`): traffic arrives from outside the query.
    Unknown,
    /// A free variable to be bound by the evaluator.
    Var(VarId),
}

impl Endpoint {
    /// Returns the variable id if this endpoint is a variable.
    pub fn as_var(self) -> Option<VarId> {
        match self {
            Endpoint::Var(v) => Some(v),
            _ => None,
        }
    }
}

/// A resolved attribute expression.
#[derive(Clone, PartialEq, Debug)]
pub enum ExprR {
    /// A numeric constant.
    Literal(f64),
    /// A reference to another flow's attribute.
    Ref(RefAttr, FlowId),
    /// A binary operation.
    Binary(BinOp, Box<ExprR>, Box<ExprR>),
}

impl ExprR {
    /// Evaluates the expression given a resolver for flow-attribute refs.
    pub fn eval(&self, lookup: &impl Fn(RefAttr, FlowId) -> f64) -> f64 {
        match self {
            ExprR::Literal(v) => *v,
            ExprR::Ref(attr, flow) => lookup(*attr, *flow),
            ExprR::Binary(op, lhs, rhs) => op.apply(lhs.eval(lookup), rhs.eval(lookup)),
        }
    }

    /// Returns the constant value if the expression contains no references.
    pub fn as_const(&self) -> Option<f64> {
        match self {
            ExprR::Literal(v) => Some(*v),
            ExprR::Ref(..) => None,
            ExprR::Binary(op, lhs, rhs) => Some(op.apply(lhs.as_const()?, rhs.as_const()?)),
        }
    }

    /// Visits every flow reference in the expression.
    pub fn for_each_ref(&self, f: &mut impl FnMut(RefAttr, FlowId)) {
        match self {
            ExprR::Literal(_) => {}
            ExprR::Ref(attr, flow) => f(*attr, *flow),
            ExprR::Binary(_, lhs, rhs) => {
                lhs.for_each_ref(f);
                rhs.for_each_ref(f);
            }
        }
    }
}

/// A resolved flow.
#[derive(Clone, PartialEq, Debug)]
pub struct Flow {
    /// The flow's name, if it had one.
    pub name: Option<Name>,
    /// Data source.
    pub src: Endpoint,
    /// Data destination.
    pub dst: Endpoint,
    /// Attribute expressions, indexed by [`AttrKind`] order
    /// (start, end, size, rate, transfer).
    attrs: [Option<ExprR>; 5],
}

impl Flow {
    /// Creates a flow with no attributes.
    pub fn new(name: Option<Name>, src: Endpoint, dst: Endpoint) -> Self {
        Flow {
            name,
            src,
            dst,
            attrs: Default::default(),
        }
    }

    /// Sets an attribute expression.
    pub fn set_attr(&mut self, kind: AttrKind, expr: ExprR) {
        self.attrs[attr_index(kind)] = Some(expr);
    }

    /// Returns an attribute expression, if set.
    pub fn attr(&self, kind: AttrKind) -> Option<&ExprR> {
        self.attrs[attr_index(kind)].as_ref()
    }
}

fn attr_index(kind: AttrKind) -> usize {
    match kind {
        AttrKind::Start => 0,
        AttrKind::End => 1,
        AttrKind::Size => 2,
        AttrKind::Rate => 3,
        AttrKind::Transfer => 4,
    }
}

/// A variable assignment: one [`Value`] per variable, indexed by [`VarId`].
pub type Binding = Vec<Value>;

/// A flow endpoint after applying a binding: no variables remain. `H`
/// names a host: its [`Address`], or, where a table has numbered the
/// hosts a problem mentions, its position in that table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BoundEndpoint<H = Address> {
    /// A concrete server.
    Host(H),
    /// The local disk of the flow's other endpoint.
    Disk,
    /// Traffic from outside the problem.
    Unknown,
}

impl Endpoint {
    /// Applies `binding`, replacing variables by their bound values.
    pub fn bound(self, binding: &Binding) -> BoundEndpoint {
        match self {
            Endpoint::Addr(a) => BoundEndpoint::Host(a),
            Endpoint::Disk => BoundEndpoint::Disk,
            Endpoint::Unknown => BoundEndpoint::Unknown,
            Endpoint::Var(v) => match binding[v.0] {
                Value::Addr(a) => BoundEndpoint::Host(a),
                Value::Disk => BoundEndpoint::Disk,
            },
        }
    }
}

/// A fully resolved problem instance.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Problem {
    /// Free variables, in declaration order.
    pub vars: Vec<Variable>,
    /// Flows, in definition order.
    pub flows: Vec<Flow>,
    /// Whether same-pool variables must bind to distinct values
    /// (the paper's default; can be overridden by the client).
    pub distinct: bool,
}

impl Problem {
    /// All distinct addresses mentioned anywhere in the problem (fixed
    /// endpoints and candidate pools) — the set of status servers the
    /// CloudTalk server may need to interrogate — in order of first
    /// mention: pools in declaration order, then flow endpoints.
    ///
    /// The order is part of the contract: it is the order status servers
    /// are interrogated in, and therefore the order the transport draws
    /// its loss randomness in.
    pub fn mentioned_addresses(&self) -> Vec<Address> {
        let (mut addrs, deduplicated) = self.mentions();
        if !deduplicated {
            dedup_keeping_first(&mut addrs);
        }
        addrs
    }

    /// [`Problem::mentioned_addresses`] together with the same addresses
    /// ascending. A footprint past the linear-scan size sorts once for
    /// both.
    pub fn mentioned_addresses_and_sorted(&self) -> (Vec<Address>, Vec<Address>) {
        let (addrs, sorted, _) = self.mentioned_addresses_ranked();
        (addrs, sorted)
    }

    /// [`Problem::mentioned_addresses_and_sorted`], and per address of the
    /// first list its position in the second (`sorted[rank[i]] ==
    /// addrs[i]`), from the same sort.
    pub fn mentioned_addresses_ranked(&self) -> (Vec<Address>, Vec<Address>, Vec<u32>) {
        let (mut addrs, deduplicated) = self.mentions();
        if !deduplicated {
            let (sorted, rank) = dedup_keeping_first(&mut addrs);
            return (addrs, sorted, rank);
        }
        let mut order: Vec<(Address, u32)> = addrs.iter().copied().zip(0..).collect();
        order.sort_unstable();
        let mut rank = vec![0; addrs.len()];
        for (at, &(_, i)) in order.iter().enumerate() {
            rank[i as usize] = at as u32;
        }
        let sorted = order.into_iter().map(|(a, _)| a).collect();
        (addrs, sorted, rank)
    }

    /// Whether variable `i` repeats the pool of the variable before it:
    /// the same pool id *and* the same candidates. `B = C = (…)` gives
    /// every variable its own copy of one pool, and a copy mentions
    /// nothing new, so a scan over the addresses a problem mentions skips
    /// it. (A pool id alone is not enough: variables may share one with
    /// different candidates.)
    pub fn repeats_pool(&self, i: usize) -> bool {
        i > 0
            && self.vars[i - 1].pool == self.vars[i].pool
            && self.vars[i - 1].candidates == self.vars[i].candidates
    }

    /// Every known address mention in first-mention order, and whether
    /// repeats are already gone. Small footprints dedup by scanning what
    /// is already there; once one outgrows that, mentions are appended raw
    /// for [`dedup_keeping_first`].
    fn mentions(&self) -> (Vec<Address>, bool) {
        let mut addrs: Vec<Address> = Vec::new();
        let mut scanning = true;
        let mut push = |a: Address| {
            if a == Address::UNKNOWN {
                return;
            }
            if !scanning {
                addrs.push(a);
            } else if !addrs.contains(&a) {
                addrs.push(a);
                scanning = addrs.len() <= LINEAR_DEDUP_MAX;
            }
        };
        for (i, var) in self.vars.iter().enumerate() {
            if self.repeats_pool(i) {
                continue;
            }
            for value in &var.candidates {
                if let Value::Addr(a) = value {
                    push(*a);
                }
            }
        }
        for flow in &self.flows {
            for ep in [flow.src, flow.dst] {
                if let Endpoint::Addr(a) = ep {
                    push(a);
                }
            }
        }
        (addrs, scanning)
    }
}

/// Distinct addresses up to which [`Problem::mentioned_addresses`]
/// deduplicates by linear scan (a few cache lines, faster than sorting);
/// beyond it the scan would be quadratic in the pool size.
const LINEAR_DEDUP_MAX: usize = 32;

/// Removes every repeat of an address, keeping first occurrences in their
/// original order, and returns the distinct addresses ascending with each
/// kept address's position among them: one sort of `address << 32 |
/// position` keys, `O(n log n)`. A repeat is marked [`Address::UNKNOWN`]
/// until the final compaction, which is why no mention may be that
/// address.
fn dedup_keeping_first(addrs: &mut Vec<Address>) -> (Vec<Address>, Vec<u32>) {
    assert!(
        u32::try_from(addrs.len()).is_ok(),
        "a position fits 32 bits"
    );
    let mut keys: Vec<u64> = (0..)
        .zip(addrs.iter())
        .map(|(at, a)| (u64::from(a.0) << 32) | at)
        .collect();
    // Within a run of equal addresses the first mention sorts first.
    keys.sort_unstable();
    let mut sorted: Vec<Address> = Vec::with_capacity(keys.len());
    let mut rank = vec![0; addrs.len()];
    for key in keys {
        let addr = Address((key >> 32) as u32);
        if sorted.last() == Some(&addr) {
            addrs[key as u32 as usize] = Address::UNKNOWN;
        } else {
            rank[key as u32 as usize] = sorted.len() as u32;
            sorted.push(addr);
        }
    }
    let mut kept = 0;
    for at in 0..addrs.len() {
        if addrs[at] != Address::UNKNOWN {
            (addrs[kept], rank[kept]) = (addrs[at], rank[at]);
            kept += 1;
        }
    }
    addrs.truncate(kept);
    rank.truncate(kept);
    (sorted, rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_displays_dotted_quad() {
        assert_eq!(Address(0x0A000102).to_string(), "10.0.1.2");
        assert_eq!(Address::UNKNOWN.to_string(), "0.0.0.0");
    }

    #[test]
    fn expr_eval_and_const_fold() {
        let e = ExprR::Binary(
            BinOp::Mul,
            Box::new(ExprR::Literal(3.0)),
            Box::new(ExprR::Binary(
                BinOp::Add,
                Box::new(ExprR::Literal(1.0)),
                Box::new(ExprR::Literal(1.0)),
            )),
        );
        assert_eq!(e.as_const(), Some(6.0));
        assert_eq!(e.eval(&|_, _| unreachable!()), 6.0);

        let with_ref = ExprR::Binary(
            BinOp::Add,
            Box::new(ExprR::Literal(1.0)),
            Box::new(ExprR::Ref(RefAttr::Rate, FlowId(0))),
        );
        assert_eq!(with_ref.as_const(), None);
        assert_eq!(with_ref.eval(&|_, _| 9.0), 10.0);
    }

    #[test]
    fn flow_attr_set_get() {
        let mut f = Flow::new(None, Endpoint::Disk, Endpoint::Var(VarId(0)));
        f.set_attr(AttrKind::Size, ExprR::Literal(100.0));
        assert_eq!(f.attr(AttrKind::Size), Some(&ExprR::Literal(100.0)));
        assert_eq!(f.attr(AttrKind::Rate), None);
    }

    #[test]
    fn mentioned_addresses_dedup_and_skip_unknown() {
        let mut p = Problem {
            vars: vec![Variable::new(
                "X",
                vec![
                    Value::Addr(Address(1)),
                    Value::Addr(Address(2)),
                    Value::Disk,
                ],
                0,
            )],
            flows: vec![],
            distinct: true,
        };
        p.flows.push(Flow::new(
            None,
            Endpoint::Unknown,
            Endpoint::Addr(Address(1)),
        ));
        let addrs = p.mentioned_addresses();
        assert_eq!(addrs, vec![Address(1), Address(2)]);
    }
}
