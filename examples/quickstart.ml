(* Quickstart: one OASIS service, one principal, the full life of a role.

   Run with: dune exec examples/quickstart.exe

   Walks the four paths of Fig. 2 — role entry (1-2) and service use (3-4) —
   then demonstrates the active security environment: the role's membership
   conditions are monitored, and revoking the supporting credential collapses
   the role immediately. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Env = Oasis_policy.Env
module Value = Oasis_util.Value
module Obs = Oasis_obs.Obs

let step fmt = Printf.printf ("\n== " ^^ fmt ^^ "\n")

let show_result label = function
  | Ok _ -> Printf.printf "   %s: granted\n" label
  | Error d -> Printf.printf "   %s: DENIED (%s)\n" label (Protocol.denial_to_string d)

let () =
  (* A world bundles the virtual clock, network and event middleware. *)
  let world = World.create ~seed:2001 () in

  step "Define a service and its policy (Horn clauses, Sect. 2)";
  let library =
    Service.create world ~name:"library"
      ~policy:
        {|
          // An initial role starts a session; membership ('*') of reader is
          // monitored: if the card is revoked the role dies immediately.
          initial reader(u) <- *appt:library_card(u);
          initial librarian <- env:eq(1, 1);
          priv borrow(u, book) <- reader(u), env:!banned(u, book);
          // Holding the librarian role carries the privilege of issuing cards.
          appoint library_card(u) <- librarian;
        |}
      ()
  in
  Env.declare_fact (Service.env library) "banned";
  Service.register_operation library "borrow" (fun ~principal:_ args ->
      match args with
      | [ _; Value.Str book ] -> Some (Value.Str (Printf.sprintf "enjoy %S" book))
      | _ -> None);
  let librarian = Principal.create world ~name:"librarian" in
  let ada = Principal.create world ~name:"ada" in

  step "Issue an appointment certificate (the library card, Sect. 2)";
  let card =
    World.run_proc world (fun () ->
        let s = Principal.start_session librarian in
        (match Principal.activate librarian s library ~role:"librarian" () with
        | Ok _ -> ()
        | Error d -> failwith (Protocol.denial_to_string d));
        match
          Principal.appoint librarian s library ~kind:"library_card"
            ~args:[ Value.Id (Principal.id ada) ]
            ~holder:ada ()
        with
        | Ok card -> card
        | Error d -> failwith (Protocol.denial_to_string d))
  in
  Printf.printf "   card issued: %s\n" (Format.asprintf "%a" Oasis_cert.Appointment.pp card);

  step "Role entry: ada activates reader with the card (paths 1-2)";
  let session = Principal.start_session ada in
  World.run_proc world (fun () ->
      show_result "activate reader" (Principal.activate ada session library ~role:"reader" ()));

  step "Service use: borrow a book (paths 3-4)";
  World.run_proc world (fun () ->
      (match
         Principal.invoke ada session library ~privilege:"borrow"
           ~args:[ Value.Id (Principal.id ada); Value.Str "Middleware 2001" ]
       with
      | Ok (Some v) -> Printf.printf "   service replied: %s\n" (Value.to_string v)
      | Ok None -> Printf.printf "   authorized (no operation registered)\n"
      | Error d -> Printf.printf "   DENIED: %s\n" (Protocol.denial_to_string d)));

  step "A parameter-level exception (the Fred Smith pattern)";
  Env.assert_fact (Service.env library) "banned"
    [ Value.Id (Principal.id ada); Value.Str "Restricted Volume" ];
  World.run_proc world (fun () ->
      show_result "borrow restricted"
        (Principal.invoke ada session library ~privilege:"borrow"
           ~args:[ Value.Id (Principal.id ada); Value.Str "Restricted Volume" ]));

  step "Active revocation: the card is withdrawn (Fig. 5)";
  Printf.printf "   active roles before: %d\n" (List.length (Service.active_roles library));
  ignore (Service.revoke_certificate library card.Oasis_cert.Appointment.id ~reason:"card expired");
  World.settle world;
  Printf.printf "   active roles after:  %d (reader collapsed without polling)\n"
    (List.length (Service.active_roles library));
  World.run_proc world (fun () ->
      show_result "borrow after revocation"
        (Principal.invoke ada session library ~privilege:"borrow"
           ~args:[ Value.Id (Principal.id ada); Value.Str "Middleware 2001" ]));

  let labels = [ ("service", Service.service_name library) ] in
  let n key = Obs.read (World.obs world) ~labels ("service." ^ key) in
  step "Service statistics";
  Printf.printf
    "   activations granted/denied: %d/%d\n   invocations granted/denied: %d/%d\n   cascade deactivations: %d\n"
    (n "activations_granted") (n "activations_denied") (n "invocations_granted")
    (n "invocations_denied") (n "cascade_deactivations")
