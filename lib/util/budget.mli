(** Cooperative resource budgets for query evaluation.

    A budget bounds an evaluation along three axes — wall-clock time,
    interned product states, and visited/step count — and supports
    deterministic fault injection for tests.  Kernels call {!check} (or
    the more specific {!charge_steps} / {!note_states}) at coarse
    granularity: once per BFS level, per batch, or per few hundred DFS
    steps, never per edge.  A budget that has tripped stays tripped
    ([check] is sticky), so a kernel that misses one check site still
    stops at the next.

    Budgets are shared across threads: all mutable state is held in
    [Atomic.t] cells, because a budget is tripped from outside the
    evaluation that charges it: serve's drain cancels in-flight
    requests from the thread that runs [stop], and the CLI cancels from
    its Ctrl-C handler.

    Deadlines are computed on the monotonic clock ({!Mclock}), not wall
    time: stepping the host clock (NTP jump, operator reset) can
    neither trip an in-flight budget spuriously nor keep it alive past
    its allotment — the invariant a long-lived daemon depends on. *)

type reason =
  | Timeout  (** the monotonic deadline passed *)
  | State_limit  (** too many product states were interned *)
  | Step_limit  (** too many nodes/configurations were visited *)
  | Injected  (** tripped by the fault-injection harness *)
  | Cancelled  (** tripped externally via {!cancel} (signal, drain) *)

type completeness =
  | Complete
  | Partial of reason
      (** [Partial r] promises soundness: every answer reported is an
          answer of the unbudgeted evaluation (a subset, never a
          superset). *)

type 'a outcome = { value : 'a; completeness : completeness }

type t

val unlimited : t
(** A shared budget that never trips.  [check unlimited] is a cheap
    constant-false; kernels may use it as the default. *)

val create :
  ?clock_ns:(unit -> int64) ->
  ?timeout_ms:int ->
  ?max_states:int ->
  ?max_steps:int ->
  ?trip_after_checks:int ->
  unit ->
  t
(** [create ()] with no limits behaves like {!unlimited} but is a fresh
    budget (its counters still accumulate, and [trip_after_checks] can
    still fire).  [trip_after_checks n] arms the deterministic fault
    injector: the [n]-th call to {!check} trips the budget with reason
    {!Injected}.  [n = 0] trips on the first check.  [clock_ns]
    (default {!Mclock.now_ns}) is the monotonic time source deadlines
    are anchored to — injectable so tests can pin the invariant that
    deadline decisions depend only on this source, never wall time. *)

val is_unlimited : t -> bool
(** True for budgets with no limits and no injector armed — kernels may
    skip bookkeeping entirely for these. *)

val check : t -> bool
(** [check b] returns [true] if the budget is exhausted.  Sticky: once
    true, always true.  Each call counts toward the fault injector and
    is recorded in {!checks_performed}. *)

val cancel : t -> unit
(** Trip the budget now with reason {!Cancelled} (idempotent; an
    earlier trip keeps its reason).  Used by signal handlers and server
    drain to stop in-flight work at its next check site — the
    evaluation returns a sound [Partial Cancelled] instead of being
    killed mid-write.  Cancelling a budget with no limits still bites:
    {!check} consults the trip flag first.  Never cancel the shared
    {!unlimited} value. *)

val charge_steps : t -> int -> unit
(** Add [n] to the visited/step counter.  Does not itself trip the
    budget — the next {!check} observes the new total. *)

val note_states : t -> int -> unit
(** Record the current number of interned product states (an absolute
    gauge, not an increment). *)

val exhausted : t -> reason option
(** [Some r] once the budget has tripped. *)

val completeness : t -> completeness
(** [Complete] if the budget never tripped, [Partial r] otherwise. *)

val checks_performed : t -> int
(** Total calls to {!check} so far — used by the fault-injection suite
    to count check sites before replaying with [trip_after_checks]. *)

val steps_charged : t -> int
(** Total steps charged via {!charge_steps}. *)

val states_noted : t -> int
(** Latest gauge recorded via {!note_states}. *)

val elapsed_ms : t -> float
(** Milliseconds since the budget was created (0.0 for {!unlimited}). *)

val similar : t -> t
(** A fresh budget with the same limits, counters reset and deadline
    re-anchored at now — used by degradation ladders that retry a
    cheaper algorithm under the same constraints.  The fault injector is
    NOT copied (a retry should not re-trip deterministically). *)

val describe : t -> string
(** One-line human-readable consumption summary for [explain]. *)

val reason_to_string : reason -> string
