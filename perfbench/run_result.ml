(* What one workload run hands back to [Perfbench]. *)

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : Out.metric list;
  context : (string * string) list;  (** workload-specific run context *)
}
