(* rtlint — static analysis over the rtgen codebase itself.

   Two depths: the default per-file syntactic pass (Lint), and --deep,
   which adds the whole-project effect analysis (Deep): summary
   extraction per file, call-graph propagation, and the RTL1xx race /
   RTL2xx determinism / RTL3xx resource / RTL998 stale-suppression
   families. Each --deep run is one cold in-memory pass; nothing is
   cached between runs.

   Exit codes follow the shared convention (Rt_check.Exit_code):
   0 clean, 1 findings at error severity, 2 input error (missing
   path), 3 internal error; cmdliner keeps 124 for CLI misuse. *)

module F = Rt_check.Finding
module Ec = Rt_check.Exit_code

open Cmdliner

let format_conv =
  let parse = function
    | "text" -> Ok F.Text
    | "json" -> Ok F.Json_format
    | "sarif" -> Ok F.Sarif
    | s -> Error (`Msg (Printf.sprintf "unknown format %S" s))
  in
  let print ppf = function
    | F.Text -> Format.pp_print_string ppf "text"
    | F.Json_format -> Format.pp_print_string ppf "json"
    | F.Sarif -> Format.pp_print_string ppf "sarif"
  in
  Arg.conv (parse, print)

let paths_arg =
  let doc =
    "Files or directories to lint (default: lib bin bench; with \
     $(b,--deep): lib bin tool)."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"PATH" ~doc)

let format_arg =
  let doc = "Report format: $(b,text), $(b,json) or $(b,sarif)." in
  Arg.(value & opt format_conv F.Text & info [ "format" ] ~docv:"FMT" ~doc)

let output_arg =
  let doc = "Write the report to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let quiet_arg =
  let doc = "Suppress the report; only the exit code speaks." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let deep_arg =
  let doc =
    "Run the whole-project effect analysis (summary extraction + \
     call-graph propagation) on top of the per-file rules: domain-race \
     detection (RTL101/102), determinism-taint tracking into \
     persistence sinks (RTL201..204), resource/exception safety \
     (RTL301/302) and stale-suppression reporting (RTL998)."
  in
  Arg.(value & flag & info [ "deep" ] ~doc)

let summaries_arg =
  let doc =
    "With $(b,--deep): print the per-function effect table (locks, \
     raises, loop allocation, closure state, spawns, sinks, taints) \
     before the report."
  in
  Arg.(value & flag & info [ "summaries" ] ~doc)

let write_report output text =
  match output with
  | None -> print_string text
  | Some file -> Rt_util.Atomic_file.write file text

let run_shallow paths format output quiet =
  match Rt_lint.Lint.lint_paths paths with
  | Error msg ->
      prerr_endline ("rtlint: " ^ msg);
      Ec.input_error
  | Ok findings ->
      if not quiet then
        write_report output (F.render ~tool:"rtlint" ~format findings);
      F.exit_code findings

let run_deep paths format output quiet summaries =
  let t0 = Rt_obs.Registry.now_ns () in
  match Rt_lint.Deep.analyze_paths paths with
  | Error msg ->
      prerr_endline ("rtlint: " ^ msg);
      Ec.input_error
  | Ok run ->
      let t1 = Rt_obs.Registry.now_ns () in
      Printf.eprintf "rtlint: deep: %d files, %.0f ms\n%!"
        run.Rt_lint.Deep.r_files
        (float_of_int (t1 - t0) /. 1e6);
      if summaries then print_string run.Rt_lint.Deep.r_table;
      if not quiet then
        write_report output
          (F.render ~tool:"rtlint" ~format run.Rt_lint.Deep.r_findings);
      F.exit_code run.Rt_lint.Deep.r_findings

let run paths format output quiet deep summaries =
  let paths =
    if paths <> [] then paths
    else if deep then [ "lib"; "bin"; "tool" ]
    else [ "lib"; "bin"; "bench" ]
  in
  if deep then run_deep paths format output quiet summaries
  else run_shallow paths format output quiet

let cmd =
  let doc = "static analysis for the rtgen codebase" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Parses every .ml file under the given paths with the \
         compiler front-end and enforces the project's hot-path \
         invariants: no polymorphic hash/compare on lattice values, \
         no wall-clock reads outside the observability and simulator \
         layers, no captured-state mutation in Domain_pool closures, \
         and no wildcard matches over the 7-value dependency lattice.";
      `P
        "$(b,--deep) adds the whole-project effect analysis: per-file \
         function summaries closed over the call graph, detecting \
         top-level mutable state raced by Domain_pool/Domain.spawn \
         closures (RTL101/102), wall-clock / Hashtbl-order / Marshal / \
         polymorphic-hash nondeterminism flowing into persisted \
         artifacts (RTL201..204), channels and fds not closed on \
         every exception path (RTL301/302), and allow-comments that \
         no longer suppress anything (RTL998).";
      `P
        "Suppress a finding with (* rtlint: allow RTL00X reason *) on \
         the flagged line or in the run of comment lines directly \
         above it; the reason is mandatory.";
      `S Manpage.s_exit_status;
      `P "0 on a clean tree; 1 when findings of error severity exist; \
          2 when an input path is missing; 3 on internal errors.";
    ]
  in
  let term =
    Term.(
      const run $ paths_arg $ format_arg $ output_arg $ quiet_arg $ deep_arg
      $ summaries_arg)
  in
  Cmd.v (Cmd.info "rtlint" ~version:"%%VERSION%%" ~doc ~man) term

let () =
  let code =
    try Cmd.eval' cmd
    with exn ->
      prerr_endline ("rtlint: internal error: " ^ Printexc.to_string exn);
      Ec.internal_error
  in
  exit code
