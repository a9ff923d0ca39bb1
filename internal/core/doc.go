// Package core implements the NoX router's novel mechanisms (paper §2): the
// XOR-coded switch datapath, the input-port decode pipeline (§2.4), and the
// per-output arbitration and masking logic with its Recovery and Scheduled
// modes (§2.6), including multi-flit abort handling (§2.7).
//
// The pieces are standalone, cycle-level state machines so they can be unit
// tested against the paper's timing diagrams (Figures 2 and 3) directly;
// internal/router composes them with links, credits, and energy counters
// into a full NoX router.
//
// # How the coding scheme works
//
// The crossbar's per-output multiplexer is replaced by an XOR reduction over
// the (mask-gated) inputs. With no contention exactly one input drives and
// passes through unmodified. With contention the output is the XOR of all
// colliding flits — still a productive transfer. An arbiter runs in
// parallel and picks one collider, whose input buffer is freed immediately;
// the masks then allow only the remaining colliders to keep superimposing,
// so consecutive output values differ by exactly one flit and the receiver
// recovers each winner with a single XOR of contiguously received values:
//
//	cycle t:   A ^ B ^ C   (A granted)
//	cycle t+1: B ^ C       receiver: (A^B^C)^(B^C) = A
//	cycle t+2: C           receiver: (B^C)^C = B, then C itself
//
// Decoded packets emerge in the order they won arbitration, preserving the
// arbiter's fairness properties.
//
// # Layout
//
// InputPort and OutputControl are values: the NoX router embeds one of each
// in every per-port record (and a network interface embeds an InputPort as
// its sink), so both keep the state a cycle touches first and narrow — the
// FIFO header, register and staged flags; four 32-bit masks, byte-wide mode,
// lock and width, the round-robin arbiter by value — and what Init wires once
// (route row, arena, a custom arbiter) behind it. Neither owns scratch: a
// collision's constituents are gathered on the stack of the goroutine that
// decides it, so outputs cost no per-output storage and shards share none.
package core
