(** Admission control: a bounded queue with per-tenant fairness,
    load-shedding, and misbehaviour breakers.

    All session work funnels through one queue so the daemon can bound its
    backlog.  When the queue is full, new work is {e shed} with a 503 and a
    [Retry-After] — refusing cheaply beats queueing unboundedly.  Each
    tenant also has a {!Core.Retry} circuit breaker fed by its request
    outcomes (malformed requests and protocol errors are failures); a
    tenant whose breaker is open is {e tripped} with a 429 until the
    cooldown admits a half-open probe.

    The dispatcher drains the queue in batches ({!take_batch}) built
    round-robin across tenants — one job per tenant per turn — so a tenant
    flooding the queue cannot starve the others.  A batch never contains
    two jobs for the same session key; the second stays queued (preserving
    its order) for a later batch, which is what lets the dispatcher run a
    whole batch in parallel on a {!Core.Pool} without two jobs racing on
    one session. *)

type job = {
  tenant : string;
  key : string;  (** session key; batches are key-disjoint *)
  trace : string option;
      (** the submitting request's {!Core.Obs.Trace} id, captured at
          enqueue; the dispatcher re-installs it around [run] so journal
          and vfs events on the pool domain carry the request's trace *)
  run : unit -> Http.response;
  mutable result : Http.response option;
  m : Mutex.t;
  cv : Condition.t;
}

type verdict =
  | Enqueued of job
  | Shed of float  (** queue full; retry after this many seconds *)
  | Tripped of float  (** tenant breaker open; retry after this many seconds *)
  | Draining of float
      (** {!drain} has been called; the queue admits nothing more *)

(** The [float] in every refusal is a {e load-derived, jittered}
    Retry-After suggestion, not a constant: it scales from [0.5×] to
    [1.5×] the configured [retry_after] with queue depth, plus uniform
    jitter in [\[0, 0.5×)] so refused clients do not re-arrive in
    lockstep.  At the default [retry_after = 1.0], a refusal from a full
    queue suggests a value in [\[1.5, 2.0)]. *)

type t

val create : ?retry_after:float -> ?policy:Core.Retry.policy -> max_queue:int -> unit -> t
(** [policy] parameterizes the per-tenant breakers (default: threshold 8,
    cooldown = [retry_after], which defaults to 1s). *)

val drain : t -> unit
(** Stop admitting: every subsequent {!submit} returns [Draining].  The
    flag is checked under the queue lock, so once [drain] returns, no job
    can race into the queue behind the dispatcher's final emptiness check
    and strand its waiting connection thread.  Also wakes blocked
    {!take_batch} callers. *)

val submit : t -> tenant:string -> key:string -> (unit -> Http.response) -> verdict

val wait : job -> Http.response
(** Blocks the connection thread until the dispatcher has filled [result]. *)

val finish : job -> Http.response -> unit
(** Dispatcher side: publish the result and wake the waiter. *)

val take_batch : t -> max:int -> block:bool -> job list
(** Up to [max] key-disjoint jobs, round-robin across tenants.  With
    [block], waits until a job arrives or {!wake}; may return [[]] on a
    wake-up (the dispatcher's cue to re-check for drain).  Never waits
    after {!drain}: an empty draining queue returns [[]] at once. *)

val wake : t -> unit
(** Wake blocked {!take_batch} callers (drain path). *)

val fault : t -> tenant:string -> unit
(** Record a client fault (4xx) against the tenant's breaker. *)

val ok : t -> tenant:string -> unit
(** Record a well-formed request; closes a half-open breaker. *)

val pending : t -> int

val retry_suggestion : t -> float
(** The Retry-After the queue would attach to a refusal right now (depth
    term + fresh jitter) — for refusals minted outside {!submit}, e.g. the
    daemon's inline draining answer. *)

type stats = { queued : int; shed : int; tripped : int; dispatched : int }

val stats : t -> stats

type tenant_debug = {
  td_tenant : string;
  td_queued : int;  (** jobs currently backlogged for this tenant *)
  td_breaker : string;  (** ["closed" | "open" | "half-open"] *)
}

val debug_tenants : t -> tenant_debug list
(** Every tenant with a queue or a breaker, sorted by name — the
    [/debug/tenants] view. *)
