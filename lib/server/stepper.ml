(* The session state machine lives in [Core.Interact.Stepper], shared with
   the CLI's batch loop; the server names it here. *)
include Core.Interact.Stepper
