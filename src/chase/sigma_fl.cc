#include "chase/sigma_fl.h"

#include <string>

namespace floq {

SigmaFL MakeSigmaFL(World& world) {
  SigmaFL sigma;

  // Rule variables must never coincide with variables of chased queries
  // (chase conjuncts carry query variables as values, and the matcher
  // binds pattern variables syntactically). "$S<k>" names can never be
  // parsed, and MakeReservedVariable's "$R<n>" counter never produces
  // them, so every call interns the same ten variables: a World that runs
  // any number of one-shot chases grows by ten variables once.
  auto rule_variable = [&](char k) {
    return world.MakeVariable(std::string("$S") + k);
  };
  Term o = rule_variable('0');
  Term a = rule_variable('1');
  Term t = rule_variable('2');
  Term t1 = rule_variable('3');
  Term v = rule_variable('4');
  Term w = rule_variable('5');
  Term c = rule_variable('6');
  Term c1 = rule_variable('7');
  Term c2 = rule_variable('8');
  Term c3 = rule_variable('9');

  // rho_1: member(V,T) :- type(O,A,T), data(O,A,V).
  sigma.tgds.push_back(
      {kRho1,
       Rule{Atom::Member(v, t), {Atom::Type(o, a, t), Atom::Data(o, a, v)}}});
  // rho_2: sub(C1,C2) :- sub(C1,C3), sub(C3,C2).
  sigma.tgds.push_back(
      {kRho2, Rule{Atom::Sub(c1, c2), {Atom::Sub(c1, c3), Atom::Sub(c3, c2)}}});
  // rho_3: member(O,C1) :- member(O,C), sub(C,C1).
  sigma.tgds.push_back(
      {kRho3,
       Rule{Atom::Member(o, c1), {Atom::Member(o, c), Atom::Sub(c, c1)}}});
  // rho_6: type(O,A,T) :- member(O,C), type(C,A,T).
  sigma.tgds.push_back(
      {kRho6,
       Rule{Atom::Type(o, a, t), {Atom::Member(o, c), Atom::Type(c, a, t)}}});
  // rho_7: type(C,A,T) :- sub(C,C1), type(C1,A,T).
  sigma.tgds.push_back(
      {kRho7,
       Rule{Atom::Type(c, a, t), {Atom::Sub(c, c1), Atom::Type(c1, a, t)}}});
  // rho_8: type(C,A,T) :- type(C,A,T1), sub(T1,T).
  sigma.tgds.push_back(
      {kRho8,
       Rule{Atom::Type(c, a, t), {Atom::Type(c, a, t1), Atom::Sub(t1, t)}}});
  // rho_9: mandatory(A,C) :- sub(C,C1), mandatory(A,C1).
  sigma.tgds.push_back(
      {kRho9,
       Rule{Atom::Mandatory(a, c), {Atom::Sub(c, c1), Atom::Mandatory(a, c1)}}});
  // rho_10: mandatory(A,O) :- member(O,C), mandatory(A,C).
  sigma.tgds.push_back(
      {kRho10, Rule{Atom::Mandatory(a, o),
                    {Atom::Member(o, c), Atom::Mandatory(a, c)}}});
  // rho_11: funct(A,C) :- sub(C,C1), funct(A,C1).
  sigma.tgds.push_back(
      {kRho11, Rule{Atom::Funct(a, c), {Atom::Sub(c, c1), Atom::Funct(a, c1)}}});
  // rho_12: funct(A,O) :- member(O,C), funct(A,C).
  sigma.tgds.push_back(
      {kRho12,
       Rule{Atom::Funct(a, o), {Atom::Member(o, c), Atom::Funct(a, c)}}});

  // rho_4: V = W :- data(O,A,V), data(O,A,W), funct(A,O).
  sigma.egd.body = {Atom::Data(o, a, v), Atom::Data(o, a, w),
                    Atom::Funct(a, o)};
  sigma.egd.v = v;
  sigma.egd.w = w;

  // rho_5: exists V. data(O,A,V) :- mandatory(A,O).
  sigma.existential.body = Atom::Mandatory(a, o);
  sigma.existential.object = o;
  sigma.existential.attr = a;

  return sigma;
}

std::vector<Rule> SigmaFLDatalogRules(World& world) {
  SigmaFL sigma = MakeSigmaFL(world);
  std::vector<Rule> rules;
  rules.reserve(sigma.tgds.size());
  for (SigmaTgd& tgd : sigma.tgds) rules.push_back(std::move(tgd.rule));
  return rules;
}

}  // namespace floq
