(** ASCII charts for reproducing the paper's figures in a terminal. *)

(** Multi-series table of (x, y) points with step interpolation, used
    for the performance-vs-exploration-time curves of Figure 7. Each
    element of the last argument is [(series_name, points)]. *)
val series :
  ?digits:int ->
  title:string ->
  x_label:string ->
  y_label:string ->
  (string * (float * float) list) list ->
  string
