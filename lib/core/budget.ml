type stats = {
  fuel_spent : int;
  elapsed : float;
  fuel_limit : int option;
  timeout : float option;
}

type t = {
  fuel_limit : int option;
  timeout : float option;
  started : float;
  mutable fuel_spent : int;
  mutable next_clock_check : int;
  mutable tripped : bool;
  mutable cancelled : bool;
}

type 'a outcome = Done of 'a | Exhausted of { partial : 'a option; spent : stats }

exception Out_of_budget

(* Reading the clock costs ~25ns but ticks sit in the innermost enumeration
   loops; consult the clock only every so many ticks. *)
let clock_check_interval = 256

(* Deadlines are measured on the monotonic clock: gettimeofday jumps under
   NTP adjustment, which can fire a deadline early or postpone it forever. *)
let create ?fuel ?timeout () =
  {
    fuel_limit = fuel;
    timeout;
    started = Monotonic.now ();
    fuel_spent = 0;
    next_clock_check = 0;
    tripped = false;
    cancelled = false;
  }

let unlimited () = create ()
let is_unlimited b = b.fuel_limit = None && b.timeout = None
let elapsed b = Monotonic.now () -. b.started

let remaining b =
  match b.timeout with None -> None | Some s -> Some (s -. elapsed b)

let stats b =
  {
    fuel_spent = b.fuel_spent;
    elapsed = elapsed b;
    fuel_limit = b.fuel_limit;
    timeout = b.timeout;
  }

let cancel b = b.cancelled <- true

let over_deadline b =
  match b.timeout with None -> false | Some s -> elapsed b >= s

let exhausted b =
  b.tripped || b.cancelled
  || (match b.fuel_limit with Some l -> b.fuel_spent >= l | None -> false)
  || over_deadline b

let m_exhausted = Telemetry.Metrics.counter "learnq.budget.exhausted"
let m_fuel = Telemetry.Metrics.counter "learnq.budget.fuel_spent"

(* [trip] fires on every tick after exhaustion as the exception unwinds
   through nested loops; count only the first transition.  It does not log:
   whoever catches [Out_of_budget] knows whether the trip was expected (a
   fuzz oracle probing partial results, a containment check giving up) or a
   session running dry, and only the latter warns. *)
let trip b =
  if not b.tripped then begin
    Telemetry.Metrics.incr m_exhausted;
    if b.fuel_spent > 0 then Telemetry.Metrics.incr m_fuel ~by:b.fuel_spent
  end;
  b.tripped <- true;
  raise Out_of_budget

let tick ?(cost = 1) b =
  b.fuel_spent <- b.fuel_spent + cost;
  if b.tripped || b.cancelled then trip b;
  (match b.fuel_limit with
  | Some l when b.fuel_spent > l -> trip b
  | _ -> ());
  match b.timeout with
  | Some _ when b.fuel_spent >= b.next_clock_check ->
      b.next_clock_check <- b.fuel_spent + clock_check_interval;
      if over_deadline b then trip b
  | _ -> ()

let run ?partial b f =
  match f () with
  | v -> Done v
  | exception Out_of_budget ->
      let partial = match partial with None -> None | Some g -> g () in
      Exhausted { partial; spent = stats b }
