(* The JSON codec lives in ft_util so that ft_obs can render traces
   without depending on the store; this alias keeps [Ft_store.Json]
   resolving for the store's own modules and its external users. *)
include Ft_util.Json
