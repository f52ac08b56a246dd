(* Shared fixtures and Alcotest testables for the whole suite. *)

module Dv = Rt_lattice.Depval
module Df = Rt_lattice.Depfun

let depval : Dv.t Alcotest.testable = Alcotest.testable Dv.pp Dv.equal

let depfun : Df.t Alcotest.testable =
  Alcotest.testable (fun ppf d -> Df.pp ppf d) Df.equal

(* Shorthand for writing expected matrices the way the paper prints them. *)
let p = Dv.Par
let f = Dv.Fwd
let b = Dv.Bwd
let bi = Dv.Bi
let fq = Dv.Fwd_maybe
let bq = Dv.Bwd_maybe
let biq = Dv.Bi_maybe

let df rows = Df.of_rows rows

(* The paper's worked-example fixtures live in the library itself
   (Rt_case.Paper_example); re-exported here for the suites. *)
let fig1_design () = Rt_case.Paper_example.design ()

let fig2_trace_text = Rt_case.Paper_example.trace_text

let fig2_trace () = Rt_case.Paper_example.trace ()

(* A deterministic pipeline design t1 -> t2 -> t3 (all broadcast): its
   exact version space converges to a unique hypothesis. *)
let pipeline_design n =
  let task i =
    { Rt_task.Design.name = Printf.sprintf "t%d" (i + 1);
      policy = Rt_task.Design.Broadcast;
      ecu = 0;
      priority = i + 1;
      wcet = 10;
      offset = (if i = 0 then 5 else 0) }
  in
  let edge i =
    { Rt_task.Design.src = i; dst = i + 1; can_id = 0x10 + i; tx_time = 3;
      medium = Rt_task.Design.Bus }
  in
  Rt_task.Design.make
    ~tasks:(Array.init n task)
    ~edges:(Array.init (n - 1) edge)
    ~period:2000

(* Small random designs for property tests: sized to keep the exact
   algorithm tractable. *)
let small_design seed =
  Rt_task.Generator.generate
    { Rt_task.Generator.default with
      layers = 3;
      width_min = 1;
      width_max = 2;
      edge_density = 0.3;
      skip_density = 0.0 }
    ~seed

let simulate ?(periods = 8) ?(seed = 1) design =
  Rt_sim.Simulator.run design
    { Rt_sim.Simulator.default_config with periods; seed }

let qcheck_case ?(count = 100) ?long_factor name arb law =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ?long_factor ~name arb law)
