//! Placement of many objects — the natural extension of the paper's
//! single-object analysis (§6.1 notes the results "extend to other
//! models"; a real distributed database manages many objects at once).
//!
//! In the paper's cost model objects are independent: the cost of an
//! interleaved multi-object schedule is the sum of the per-object costs.
//! What *isn't* independent is **load**: if every object's DA core `F`
//! sits on the same processor, that processor performs the I/O of every
//! write and serves every first read. A [`Placement`] policy decides
//! where each object goes when it is first touched;
//! [`crate::partition::select_members`] implements the policies, for DA
//! cores on processors and for objects on worker shards alike.

/// How objects are placed over a pool of slots (processors for DA cores,
/// worker shards for the sharded executor) as they are first touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Every object's core is `{0, …, t-2}` with floater `t-1` — the
    /// naive choice, which concentrates all core traffic on one set.
    SameCore,
    /// The k-th distinct object's core starts at processor
    /// `(k·(t-1)) mod n` — spreads core duty round-robin.
    RoundRobin,
    /// Each new object goes to the currently least-loaded slots (load =
    /// requests routed to each slot so far).
    LoadAware,
}
