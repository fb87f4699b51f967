(* Independent period checks. Each recomputes the answer along a path the
   workloads do not time: the Mct bound from per-resource cycle-times, the
   full-TPN maximum cycle ratio for OVERLAP (the production route is
   Theorem 1), and the operational simulator for STRICT (built without the
   Petri-net code). *)

open Rwt_util
open Rwt_workflow

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt
let ( let* ) = Result.bind

(* P >= Mct always; P = Mct exactly when no stage is replicated. *)
let mct_bound model inst p =
  let mct = Cycle_time.mct model inst in
  if Rat.compare p mct < 0 then
    fail "%s: period %s below Mct %s" inst.Instance.name (Rat.to_string p) (Rat.to_string mct)
  else if (not (Mapping.is_replicated inst.Instance.mapping)) && not (Rat.equal p mct) then
    fail "%s: unreplicated, period %s but Mct %s" inst.Instance.name (Rat.to_string p)
      (Rat.to_string mct)
  else Ok ()

(* OVERLAP: the maximum cycle ratio of the full timed Petri net. *)
let full_tpn inst p =
  let q = (Rwt_core.Exact.period_exn Comm_model.Overlap inst).Rwt_core.Exact.period in
  if Rat.equal p q then Ok ()
  else fail "%s: period %s but full TPN gives %s" inst.Instance.name (Rat.to_string p) (Rat.to_string q)

(* The maximum cycle ratio of the materialized net ([Tpn_build], not the
   fused builder) by the parametric solver (not Howard). *)
let legacy_net model inst p =
  let net = Rwt_core.Tpn_build.build_exn model inst in
  match Rwt_petri.Mcr.Exact.parametric (Rwt_petri.Mcr.graph_of_tpn net.Rwt_core.Tpn_build.tpn) with
  | None -> fail "%s: the materialized net has no circuit" inst.Instance.name
  | Some w ->
    let q = Rat.div_int w.Rwt_petri.Mcr.Exact.ratio net.Rwt_core.Tpn_build.m in
    if Rat.equal p q then Ok ()
    else fail "%s: period %s but the materialized net gives %s" inst.Instance.name (Rat.to_string p) (Rat.to_string q)

(* Instances on which the simulator's period fell below Mct, which no
   schedule can do; reported on stderr. *)
let simulator_faults : string list ref = ref []
let faults_lock = Mutex.create ()

(* STRICT: the simulator's period. [period_estimate] is exact once the
   horizon holds a periodic regime, but long transients (the 504-row sweep
   chain) need more than 32·m data sets; the horizon doubles from 32·m up
   to 256·m until the estimate matches. Where the simulator's period is
   below Mct the simulator itself is wrong, and the period is checked
   against the materialized net instead. *)
let simulator model inst p =
  let m = Mapping.num_paths inst.Instance.mapping in
  let sim k =
    Rwt_sim.Schedule.period_estimate (Rwt_sim.Schedule.run model inst ~datasets:(k * m))
  in
  let rec go k =
    let q = sim k in
    if Rat.equal p q then Ok ()
    else if k < 256 then go (2 * k)
    else if Rat.compare q (Cycle_time.mct model inst) < 0 then begin
      Mutex.protect faults_lock (fun () ->
          simulator_faults :=
            Printf.sprintf "%s: simulator period %s is below Mct" inst.Instance.name (Rat.to_string q)
            :: !simulator_faults);
      legacy_net model inst p
    end
    else
      fail "%s: period %s but simulator gives %s at %d·m data sets" inst.Instance.name
        (Rat.to_string p) (Rat.to_string q) k
  in
  go 32

let period model inst p =
  let* () = mct_bound model inst p in
  match model with
  | Comm_model.Overlap -> full_tpn inst p
  | Comm_model.Strict -> simulator model inst p

type item = Comm_model.t * Instance.t * Rat.t

(* [period] on the triples [items.(lo .. hi-1)], two at a time: the checks
   run outside the timed region, and the simulator alone would otherwise
   dominate the length of a sweep run. One task per triple, since a single
   simulator ladder can cost as much as the rest of a slice. *)
let run_checks items lo hi =
  Rwt_pool.map ~workers:2 ~chunk:1 ~n:(hi - lo) (fun k ->
      let model, inst, p = items.(lo + k) in
      try period model inst p
      with e -> fail "%s: check raised %s" inst.Instance.name (Printexc.to_string e))

(* The triples of a run and their results; [results.(i)] is set for every
   [i < next]. *)
type spread = { items : item array; results : (unit, string) result array; mutable next : int }

let start items =
  let items = Array.of_list items in
  { items; results = Array.make (Array.length items) (Ok ()); next = 0 }

let check_to c hi =
  Array.blit (run_checks c.items c.next hi) 0 c.results c.next (hi - c.next);
  c.next <- hi

(* Check the next sixth of the triples. Called between timed rounds, it
   spreads a run's rounds over the whole run, so they sample more of the
   host's speed drift than back-to-back rounds would. *)
let advance c =
  let n = Array.length c.items in
  check_to c (min n (c.next + ((n + 5) / 6)))

(* [advance] on the spread in [cell], started from [items ()] at the first
   call: the triples are known once round 1 has run. *)
let advance_in cell items =
  let c =
    match !cell with
    | Some c -> c
    | None ->
      let c = start (items ()) in
      cell := Some c;
      c
  in
  advance c

(* Check the rest; the failures and the triples that passed. *)
let finish c =
  check_to c (Array.length c.items);
  let errors = ref [] and passed = ref [] in
  Array.iteri
    (fun i r -> match r with Ok () -> passed := c.items.(i) :: !passed | Error e -> errors := e :: !errors)
    c.results;
  (List.rev !errors, List.rev !passed)

(* Sweep steps: more speed or bandwidth never raises the period, more work
   or data never lowers it. *)
type direction = Not_higher | Not_lower

let direction dir ~before ~after =
  let c = Rat.compare after before in
  match dir with
  | Not_higher when c > 0 ->
    fail "period rose from %s to %s" (Rat.to_string before) (Rat.to_string after)
  | Not_lower when c < 0 ->
    fail "period fell from %s to %s" (Rat.to_string before) (Rat.to_string after)
  | _ -> Ok ()

(* ---- self-test: every check must reject a wrong answer ---- *)

let nudge p sign = Rat.div_int (Rat.mul_int p (1_000_000_000 + sign)) 1_000_000_000

let rejects name = function
  | Ok () -> [ name ^ " accepted a wrong answer" ]
  | Error _ -> []

(* [cases] are checked (model, instance, period) triples from the run; the
   self-test takes the one with fewest rows per (model, replicated) class,
   since a rejected simulator check runs its whole horizon ladder, and
   feeds each check a period off by one part in 10^9. *)
let self_test cases =
  let key (model, inst, _) = (model, Mapping.is_replicated inst.Instance.mapping) in
  let rows (_, inst, _) = Mapping.num_paths inst.Instance.mapping in
  let cases =
    List.fold_left
      (fun acc c ->
        match List.partition (fun c' -> key c' = key c) acc with
        | [ c' ], rest when rows c' <= rows c -> c' :: rest
        | _, rest -> c :: rest)
      [] cases
  in
  let per_case (model, inst, p) =
    let mct = Cycle_time.mct model inst in
    rejects "mct bound" (mct_bound model inst (nudge mct (-1)))
    @ (if Mapping.is_replicated inst.Instance.mapping then []
       else rejects "mct equality" (mct_bound model inst (nudge p 1)))
    @
    match model with
    | Comm_model.Overlap -> rejects "full tpn" (full_tpn inst (nudge p 1))
    | Comm_model.Strict ->
      rejects "simulator" (simulator model inst (nudge p 1))
      @ rejects "materialized net" (legacy_net model inst (nudge p 1))
  in
  let sweep_sign =
    match cases with
    | [] -> []
    | (_, _, p) :: _ ->
      rejects "sweep direction (rise)" (direction Not_higher ~before:p ~after:(nudge p 1))
      @ rejects "sweep direction (fall)" (direction Not_lower ~before:p ~after:(nudge p (-1)))
  in
  List.concat_map per_case cases @ sweep_sign
