(* Anonymous service use (Sect. 5, "Anonymity").

   Run with: dune exec examples/anonymous_clinic.exe

   Privacy legislation allows insured members to take genetic tests
   anonymously. The insurance company's CIV issues a membership card — an
   appointment certificate carrying only the scheme and expiry, bound to a
   pseudonym key created by the member. The clinic validates the card at the
   issuing CIV (a trusted third party) and checks the date constraint; it
   never learns who the member is, and the insurer never learns that a test
   took place. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Domain = Oasis_domain.Domain
module Anonymity = Oasis_domain.Anonymity
module Value = Oasis_util.Value
module Ident = Oasis_util.Ident
module Dlog = Oasis_trust.Decision_log
module Civ = Oasis_domain.Civ
module Obs = Oasis_obs.Obs

let banner title = Printf.printf "\n=== %s ===\n" title

let () =
  let world = World.create ~seed:8 () in

  banner "The insurance scheme and the clinic";
  let insurer = Domain.create world ~name:"mutual-health" () in
  let clinic =
    Service.create world ~name:"genetic-clinic"
      ~policy:"priv take_genetic_test(exp) <- paid_up_patient(exp);" ()
  in
  Service.add_activation_rule clinic
    (Anonymity.member_role_rule ~scheme:"insured" ~civ_name:"mutual-health.civ"
       ~role:"paid_up_patient");
  Service.register_operation clinic "take_genetic_test" (fun ~principal args ->
      ignore args;
      Printf.printf "  [clinic] sample taken for %s; billing the scheme\n"
        (Ident.to_string principal);
      Some (Value.Str "results by sealed post"));

  banner "Enrolment";
  let bob = Principal.create world ~name:"bob-identity" in
  let membership =
    Anonymity.enroll ~civ:(Domain.civ insurer) ~member:bob ~scheme:"insured" ~expires_at:5000.0
  in
  World.settle world;
  Printf.printf "  membership card: %s\n"
    (Format.asprintf "%a" Oasis_cert.Appointment.pp membership.Anonymity.certificate);
  Printf.printf "  note: no personal details among the parameters; the alias is %s\n"
    (Ident.to_string membership.Anonymity.alias);

  banner "The anonymous visit";
  World.run_proc world (fun () ->
      let session = Principal.start_session bob in
      (match Anonymity.activate_anonymously bob session clinic ~role:"paid_up_patient" membership with
      | Ok rmc ->
          Printf.printf "  role entered: %s\n" (Format.asprintf "%a" Oasis_cert.Rmc.pp rmc)
      | Error d -> failwith (Protocol.denial_to_string d));
      match
        Principal.invoke_as bob session clinic ~privilege:"take_genetic_test"
          ~args:[ Value.Time membership.Anonymity.expires_at ]
          ~alias:membership.Anonymity.alias
      with
      | Ok (Some v) -> Printf.printf "  clinic replied: %s\n" (Value.to_string v)
      | Ok None -> ()
      | Error d -> failwith (Protocol.denial_to_string d));

  banner "What each party knows";
  Printf.printf "  clinic audit trail:\n";
  List.iter
    (fun (r : Dlog.record) ->
      if r.decision = Dlog.Grant then
        Printf.printf "    %s by %s  <- pseudonymous\n" r.action (Ident.to_string r.principal))
    (Dlog.records (Service.decision_log clinic));
  Printf.printf
    "  insurer: validated one membership card (%d validation(s) served), learned nothing else\n"
    (let civ = Domain.civ insurer in
     List.init (Civ.replica_count civ) (fun i ->
         Obs.read (World.obs world) "civ.validations_served"
           ~labels:[ ("civ", Civ.civ_name civ); ("replica", string_of_int i) ])
     |> List.fold_left ( + ) 0);

  banner "After the scheme lapses";
  World.run_until world 5001.0;
  World.settle world;
  World.run_proc world (fun () ->
      let session = Principal.start_session bob in
      match Anonymity.activate_anonymously bob session clinic ~role:"paid_up_patient" membership with
      | Error d -> Printf.printf "  enrolment expired, activation refused: %s\n" (Protocol.denial_to_string d)
      | Ok _ -> Printf.printf "  unexpected grant\n")
