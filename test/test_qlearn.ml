let check_bool = Alcotest.(check bool)

let make_agent seed =
  Ft_qlearn.Agent.create (Ft_util.Rng.create seed) ~feature_dim:2 ~n_actions:3

let test_select_respects_validity () =
  let agent = make_agent 1 in
  Alcotest.(check (option int)) "no valid actions" None
    (Ft_qlearn.Agent.select agent ~state:[| 0.; 0. |] ~valid:[]);
  match Ft_qlearn.Agent.select agent ~state:[| 0.; 0. |] ~valid:[ 1 ] with
  | Some 1 -> ()
  | _ -> Alcotest.fail "must pick the only valid action"

let test_training_every_five () =
  let agent = make_agent 2 in
  let transition action reward =
    {
      Ft_qlearn.Agent.state = [| 0.; 0. |];
      action;
      reward;
      next_state = [| 1.; 0. |];
      next_valid = [ 0; 1; 2 ];
    }
  in
  let losses = ref 0 in
  for i = 1 to 20 do
    match Ft_qlearn.Agent.record agent (transition (i mod 3) 0.1) with
    | Some _ -> incr losses
    | None -> ()
  done;
  Alcotest.(check int) "every fifth record trains" 4 !losses;
  (* each record decays epsilon once: 0.3 * 0.98 per record, floored *)
  let rec decayed e n = if n = 0 then e else decayed (Float.max 0.05 (e *. 0.98)) (n - 1) in
  Alcotest.(check (float 0.)) "recorded 20" (decayed 0.3 20) (Ft_qlearn.Agent.epsilon agent)

let record_blank agent n =
  for _ = 1 to n do
    ignore
      (Ft_qlearn.Agent.record agent
         {
           Ft_qlearn.Agent.state = [| 0.; 0. |];
           action = 0;
           reward = 0.;
           next_state = [| 0.; 0. |];
           next_valid = [];
         })
  done

let test_epsilon_decays () =
  let agent = make_agent 3 in
  let before = Ft_qlearn.Agent.epsilon agent in
  record_blank agent 50;
  check_bool "decayed" true (Ft_qlearn.Agent.epsilon agent < before)

(* 0.3 * 0.98^n drops below 0.05 after 89 records; from then on the
   floor holds epsilon at exactly 0.05. *)
let test_epsilon_floor () =
  let agent = make_agent 3 in
  Alcotest.(check (float 0.)) "starts at 0.3" 0.3 (Ft_qlearn.Agent.epsilon agent);
  record_blank agent 200;
  Alcotest.(check (float 0.)) "settles at 0.05" 0.05 (Ft_qlearn.Agent.epsilon agent)

(* A two-armed bandit: action 0 always rewards 1, actions 1 and 2
   reward -1.  The agent picks its own actions (epsilon-greedy at the
   paper's schedule); after training, the greedy choice must be
   action 0. *)
let test_learns_bandit () =
  let agent = make_agent 4 in
  let state = [| 0.5; -0.5 |] in
  for _ = 1 to 400 do
    let action =
      match Ft_qlearn.Agent.select agent ~state ~valid:[ 0; 1; 2 ] with
      | Some a -> a
      | None -> Alcotest.fail "must select"
    in
    let reward = if action = 0 then 1.0 else -1.0 in
    ignore
      (Ft_qlearn.Agent.record agent
         { Ft_qlearn.Agent.state; action; reward; next_state = state; next_valid = [] })
  done;
  let q = Ft_qlearn.Agent.q_values agent state in
  check_bool "action 0 dominates" true (q.(0) > q.(1) && q.(0) > q.(2))

let test_record_rejects_bad_action () =
  let agent = make_agent 5 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Agent.record: action index out of range") (fun () ->
      ignore
        (Ft_qlearn.Agent.record agent
           {
             Ft_qlearn.Agent.state = [| 0.; 0. |];
             action = 7;
             reward = 0.;
             next_state = [| 0.; 0. |];
             next_valid = [];
           }))

(* [f ()] must raise [Invalid_argument] with a message starting with
   [prefix]. *)
let check_invalid ~prefix name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument %S..." name prefix
  | exception Invalid_argument msg ->
      check_bool
        (Printf.sprintf "%s: message %S starts with %S" name msg prefix)
        true
        (String.starts_with ~prefix msg)

(* A transition whose state or next_state has the wrong length is
   rejected before anything changes: it never reaches the replay
   buffer, so every later well-formed record (training rounds
   included) still succeeds, and the record count and epsilon are as
   if it had never been offered. *)
let test_record_rejects_bad_shapes () =
  let agent = make_agent 6 in
  let good =
    {
      Ft_qlearn.Agent.state = [| 0.5; -0.5 |];
      action = 1;
      reward = 0.25;
      next_state = [| -0.5; 0.5 |];
      next_valid = [ 0; 1; 2 ];
    }
  in
  let epsilon = Ft_qlearn.Agent.epsilon agent in
  check_invalid ~prefix:"Agent.record:" "short state" (fun () ->
      Ft_qlearn.Agent.record agent { good with state = [| 0.5 |] });
  check_invalid ~prefix:"Agent.record:" "long next_state" (fun () ->
      Ft_qlearn.Agent.record agent { good with next_state = [| 0.; 0.; 0. |] });
  Alcotest.(check (float 0.)) "epsilon untouched" epsilon (Ft_qlearn.Agent.epsilon agent);
  (* nothing recorded: the training cadence still counts from zero *)
  let trained =
    List.filter
      (fun _ -> Option.is_some (Ft_qlearn.Agent.record agent good))
      (List.init 50 (fun i -> i + 1))
  in
  Alcotest.(check (list int)) "well-formed records all land"
    [ 5; 10; 15; 20; 25; 30; 35; 40; 45; 50 ] trained

(* An out-of-range [next_valid] index would index the target
   network's output in every training round that samples the
   transition; it is rejected before anything changes, and the fifth
   well-formed record trains normally. *)
let test_record_rejects_bad_next_valid () =
  let agent = make_agent 8 in
  let good =
    {
      Ft_qlearn.Agent.state = [| 0.5; -0.5 |];
      action = 2;
      reward = 0.25;
      next_state = [| -0.5; 0.5 |];
      next_valid = [ 0; 2 ];
    }
  in
  List.iter
    (fun next_valid ->
      check_invalid ~prefix:"Agent.record: next_valid" "bad next_valid" (fun () ->
          Ft_qlearn.Agent.record agent { good with next_valid }))
    [ [ 7 ]; [ -1 ]; [ 0; 3 ] ];
  (* nothing recorded: the fifth well-formed record is the first to train *)
  for i = 1 to 4 do
    check_bool (Printf.sprintf "record %d does not train" i) true
      (Ft_qlearn.Agent.record agent good = None)
  done;
  match Ft_qlearn.Agent.record agent good with
  | Some loss -> check_bool "trains" true (Float.is_finite loss)
  | None -> Alcotest.fail "the fifth record must train"

(* The targets' max over valid actions: bit for bit the [Float.max]
   fold, on rows with nan, signed zeros and infinities in every
   position, and on random index lists with repeats. *)
let test_max_at_matches_float_max_fold () =
  let reference row idx =
    List.fold_left (fun m i -> Float.max m row.(i)) neg_infinity idx
  in
  let specials = [| nan; 0.; -0.; neg_infinity; infinity; 1.5; -2.; Float.min_float |] in
  let same row idx =
    Int64.equal
      (Int64.bits_of_float (reference row idx))
      (Int64.bits_of_float (Ft_util.Mathx.max_at row idx))
  in
  let n = Array.length specials in
  check_bool "empty" true (same specials []);
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      for k = 0 to n - 1 do
        if not (same specials [ i; j; k ]) then
          Alcotest.failf "differs on [%g; %g; %g]" specials.(i) specials.(j) specials.(k)
      done
    done
  done;
  let rng = Ft_util.Rng.create 3 in
  for _ = 1 to 1000 do
    let row = Array.init 62 (fun _ -> Ft_util.Rng.choose_array rng specials) in
    let idx = List.init (Ft_util.Rng.int rng 20) (fun _ -> Ft_util.Rng.int rng 62) in
    if not (same row idx) then Alcotest.fail "differs on a random row"
  done

let () =
  Alcotest.run "ft_qlearn"
    [
      ( "agent",
        [
          Alcotest.test_case "validity masking" `Quick test_select_respects_validity;
          Alcotest.test_case "train every 5" `Quick test_training_every_five;
          Alcotest.test_case "epsilon decay" `Quick test_epsilon_decays;
          Alcotest.test_case "epsilon floor" `Quick test_epsilon_floor;
          Alcotest.test_case "learns bandit" `Slow test_learns_bandit;
          Alcotest.test_case "bad action" `Quick test_record_rejects_bad_action;
          Alcotest.test_case "bad state shapes" `Quick test_record_rejects_bad_shapes;
          Alcotest.test_case "bad next_valid" `Quick test_record_rejects_bad_next_valid;
          Alcotest.test_case "target max matches Float.max fold" `Quick
            test_max_at_matches_float_max_fold;
        ] );
    ]
