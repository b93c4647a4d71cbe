(* Roving principals between mutually-aware domains (Sect. 5).

   Run with: dune exec examples/visiting_doctor.exe

   A doctor employed at a hospital works temporarily at a research institute
   in another (mutually trusting) domain. The home domain's administrative
   service issues an employed_as_doctor appointment certificate; the
   institute's SLA-installed activation rule accepts it — with callback
   validation to the hospital — as proof of medical qualification for the
   visiting_doctor role, which carries more privilege than a plain guest.
   The reciprocal clause lets research medics visit the hospital. *)

module World = Oasis_core.World
module Service = Oasis_core.Service
module Principal = Oasis_core.Principal
module Protocol = Oasis_core.Protocol
module Domain = Oasis_domain.Domain
module Civ = Oasis_domain.Civ
module Sla = Oasis_domain.Sla
module Term = Oasis_policy.Term
module Value = Oasis_util.Value
module Obs = Oasis_obs.Obs

let banner title = Printf.printf "\n=== %s ===\n" title

let attempt label = function
  | Ok _ -> Printf.printf "  %s: granted\n" label
  | Error d -> Printf.printf "  %s: DENIED (%s)\n" label (Protocol.denial_to_string d)

let () =
  let world = World.create ~seed:5 () in

  banner "Two mutually-aware domains";
  let hospital = Domain.create world ~name:"hospital" () in
  let institute = Domain.create world ~name:"institute" () in
  let hospital_portal =
    Domain.add_service hospital ~name:"portal"
      ~policy:"initial staff(u) <- appt:employed_as_doctor(u)@hospital.civ;" ()
  in
  let institute_portal =
    Domain.add_service institute ~name:"portal"
      ~policy:
        {|
          // A minimal visitor role anyone can enter.
          initial guest <- env:eq(1, 1);
          priv read_public_data(u) <- guest;
          priv read_trial_data(u) <- visiting_doctor(u);
          priv run_ward_round(u) <- visiting_researcher(u);
        |}
      ()
  in
  (* run_ward_round belongs at the hospital, not the institute; install the
     reciprocal privilege there instead. *)
  let _ = hospital_portal in
  let sla =
    Sla.establish world ~name:"hospital-institute" ~between:hospital_portal ~and_:institute_portal
      ~clauses:
        [
          Sla.Accept_appointment
            {
              at = "institute.portal";
              role = "visiting_doctor";
              params = [ Term.Var "u" ];
              kind = "employed_as_doctor";
              cert_args = [ Term.Var "u" ];
              issuer = "hospital.civ";
              monitored = true;
              extra = [];
              initial = true;
            };
          Sla.Accept_appointment
            {
              at = "hospital.portal";
              role = "visiting_researcher";
              params = [ Term.Var "u" ];
              kind = "research_medic";
              cert_args = [ Term.Var "u" ];
              issuer = "institute.civ";
              monitored = true;
              extra = [];
              initial = true;
            };
        ]
  in
  Format.printf "%a\n" Sla.pp sla;

  banner "The hospital employs Dr Jones";
  let jones = Principal.create world ~name:"dr-jones" in
  let employment =
    Civ.issue (Domain.civ hospital) ~kind:"employed_as_doctor"
      ~args:[ Value.Id (Principal.id jones) ]
      ~holder:(Principal.id jones) ~holder_key:(Principal.longterm_public jones) ()
  in
  Principal.grant_appointment jones employment;
  World.settle world;
  Printf.printf "  home credential: %s\n" (Format.asprintf "%a" Oasis_cert.Appointment.pp employment);

  banner "Dr Jones arrives at the institute";
  let session = Principal.start_session jones in
  World.run_proc world (fun () ->
      attempt "enter as guest" (Principal.activate jones session institute_portal ~role:"guest" ());
      attempt "read public data"
        (Principal.invoke jones session institute_portal ~privilege:"read_public_data"
           ~args:[ Value.Id (Principal.id jones) ]);
      (* Without the visiting role, trial data is off limits. *)
      attempt "read trial data (as guest)"
        (Principal.invoke jones session institute_portal ~privilege:"read_trial_data"
           ~args:[ Value.Id (Principal.id jones) ]);
      attempt "activate visiting_doctor"
        (Principal.activate jones session institute_portal ~role:"visiting_doctor" ());
      attempt "read trial data (as visiting doctor)"
        (Principal.invoke jones session institute_portal ~privilege:"read_trial_data"
           ~args:[ Value.Id (Principal.id jones) ]));
  let hv = Domain.civ hospital in
  Printf.printf
    "  (the institute validated the certificate by callback: %d validations served at the hospital CIV)\n"
    (List.init (Civ.replica_count hv) (fun i ->
         Obs.read (World.obs world) "civ.validations_served"
           ~labels:[ ("civ", Civ.civ_name hv); ("replica", string_of_int i) ])
    |> List.fold_left ( + ) 0);

  banner "The reciprocal direction";
  let smith = Principal.create world ~name:"researcher-smith" in
  let research_post =
    Civ.issue (Domain.civ institute) ~kind:"research_medic"
      ~args:[ Value.Id (Principal.id smith) ]
      ~holder:(Principal.id smith) ~holder_key:(Principal.longterm_public smith) ()
  in
  Principal.grant_appointment smith research_post;
  World.settle world;
  World.run_proc world (fun () ->
      let s = Principal.start_session smith in
      attempt "researcher visits hospital"
        (Principal.activate smith s hospital_portal ~role:"visiting_researcher" ()));

  banner "Employment ends at home: the visit ends everywhere (Fig. 5)";
  Printf.printf "  institute roles before: %d\n"
    (List.length (Service.active_roles institute_portal));
  ignore
    (Civ.revoke (Domain.civ hospital) employment.Oasis_cert.Appointment.id
       ~reason:"employment terminated");
  World.settle world;
  Printf.printf "  institute roles after:  %d (visiting_doctor collapsed remotely)\n"
    (List.length (Service.active_roles institute_portal));
  World.run_proc world (fun () ->
      attempt "read trial data after termination"
        (Principal.invoke jones session institute_portal ~privilege:"read_trial_data"
           ~args:[ Value.Id (Principal.id jones) ]))
