let all =
  [
    Exp_e1.experiment;
    Exp_e2.experiment;
    Exp_e3.experiment;
    Exp_e4.experiment;
    Exp_e5.experiment;
    Exp_e6.experiment;
    Exp_e7.experiment;
    Exp_e8.experiment;
    Exp_e9.experiment;
    Exp_e10.experiment;
    Exp_e11.experiment;
    Exp_e12.experiment;
    Exp_e13.experiment;
    Exp_e14.experiment;
    Exp_e15.experiment;
    Exp_e16.experiment;
    Exp_e17.experiment;
    Exp_e18.experiment;
    Exp_e19.experiment;
    Exp_e20.experiment;
    Exp_e22.experiment;
    Exp_e3.ablation;
    Exp_e2.ablation;
    Exp_e6.ablation;
    Exp_e7.ablation;
    Exp_a5.experiment;
    Exp_a6.experiment;
  ]

let find id =
  let wanted = String.lowercase_ascii id in
  List.find_opt (fun e -> e.Experiment.id = wanted) all

let ids () = List.map (fun e -> e.Experiment.id) all
