//! The packet traits: units of collection work.

/// A unit of read-only collection work.
///
/// Packets in one bucket may execute concurrently on any worker, so a
/// packet may only *read* the shared context and *write* into itself.
/// Results are collected by the caller after the bucket drains, in
/// packet-index order — which is what makes the reduction independent
/// of the execution schedule.
pub trait Packet<C>: Send {
    /// Executes the packet against the shared context.
    fn run(&mut self, ctx: &C);
}
