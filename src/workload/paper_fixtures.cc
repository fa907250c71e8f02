#include "workload/paper_fixtures.h"

namespace evident {
namespace paper {

namespace {

// Builders below die on programmer error (the fixture data is static and
// covered by tests), so unwrapping results with value() is safe and keeps
// the table data readable.

Value S(const char* s) { return Value(s); }
Value I(int64_t i) { return Value(i); }

/// (values..., mass) pair helper; empty list = Θ.
using Focal = std::pair<std::vector<Value>, double>;

EvidenceSet ES(const DomainPtr& domain, const std::vector<Focal>& focals) {
  return EvidenceSet::FromPairs(domain, focals).value();
}

ExtendedTuple Restaurant(const char* rname, const char* street,
                         int64_t bldg_no, const char* phone,
                         EvidenceSet speciality, EvidenceSet best_dish,
                         EvidenceSet rating, SupportPair membership) {
  ExtendedTuple t;
  t.cells = {S(rname),            S(street),           I(bldg_no),
             S(phone),            std::move(speciality), std::move(best_dish),
             std::move(rating)};
  t.membership = membership;
  return t;
}

}  // namespace

DomainPtr SpecialityDomain() {
  static const DomainPtr domain =
      Domain::MakeSymbolic("speciality", {"am", "hu", "si", "ca", "mu", "it",
                                          "ta"})
          .value();
  return domain;
}

DomainPtr DishDomain() {
  static const DomainPtr domain = [] {
    std::vector<std::string> dishes;
    for (int i = 1; i <= 36; ++i) dishes.push_back("d" + std::to_string(i));
    return Domain::MakeSymbolic("dish", dishes).value();
  }();
  return domain;
}

DomainPtr RatingDomain() {
  static const DomainPtr domain =
      Domain::MakeSymbolic("rating", {"ex", "gd", "avg"}).value();
  return domain;
}

Result<SchemaPtr> RestaurantSchema() {
  return RelationSchema::Make({
      AttributeDef::Key("rname"),
      AttributeDef::Definite("street"),
      AttributeDef::Definite("bldg-no"),
      AttributeDef::Definite("phone"),
      AttributeDef::Uncertain("speciality", SpecialityDomain()),
      AttributeDef::Uncertain("best-dish", DishDomain()),
      AttributeDef::Uncertain("rating", RatingDomain()),
  });
}

Result<ExtendedRelation> TableRA() {
  EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema, RestaurantSchema());
  const DomainPtr spec = SpecialityDomain();
  const DomainPtr dish = DishDomain();
  const DomainPtr rating = RatingDomain();

  ExtendedRelation ra("RA", schema);
  // Masses are the exact fractions of the six-reviewer voting model; the
  // paper prints them rounded (0.33 = 2/6, 0.17 = 1/6, ...).
  EVIDENT_RETURN_NOT_OK(ra.Insert(Restaurant(
      "garden", "univ.ave.", 2011, "371-2155",
      ES(spec, {{{S("si")}, 0.5}, {{S("hu")}, 0.25}, {{}, 0.25}}),
      ES(dish, {{{S("d31")}, 0.5}, {{S("d35"), S("d36")}, 0.5}}),
      ES(rating,
         {{{S("ex")}, 1.0 / 3}, {{S("gd")}, 1.0 / 2}, {{S("avg")}, 1.0 / 6}}),
      SupportPair::Certain())));
  EVIDENT_RETURN_NOT_OK(ra.Insert(Restaurant(
      "wok", "wash.ave.", 600, "382-4165", ES(spec, {{{S("si")}, 1.0}}),
      ES(dish, {{{S("d6")}, 1.0 / 3}, {{S("d7")}, 1.0 / 3},
                {{S("d25")}, 1.0 / 3}}),
      ES(rating, {{{S("gd")}, 0.25}, {{S("avg")}, 0.75}}),
      SupportPair::Certain())));
  EVIDENT_RETURN_NOT_OK(ra.Insert(Restaurant(
      "country", "plato.blvd", 12, "293-9111", ES(spec, {{{S("am")}, 1.0}}),
      ES(dish, {{{S("d1")}, 0.5}, {{S("d2")}, 1.0 / 3}, {{}, 1.0 / 6}}),
      ES(rating, {{{S("ex")}, 1.0}}), SupportPair::Certain())));
  EVIDENT_RETURN_NOT_OK(ra.Insert(Restaurant(
      "olive", "nic.ave.", 514, "338-0355", ES(spec, {{{S("it")}, 1.0}}),
      ES(dish, {{{S("d1")}, 1.0}}),
      ES(rating, {{{S("gd")}, 0.5}, {{S("avg")}, 0.5}}),
      SupportPair::Certain())));
  EVIDENT_RETURN_NOT_OK(ra.Insert(Restaurant(
      "mehl", "9th-street", 820, "333-4035",
      ES(spec, {{{S("mu")}, 0.8}, {{S("ta")}, 0.2}}),
      ES(dish, {{{S("d24")}, 0.4}, {{S("d31")}, 0.6}}),
      ES(rating, {{{S("ex")}, 0.8}, {{S("gd")}, 0.2}}),
      SupportPair{0.5, 0.5})));
  EVIDENT_RETURN_NOT_OK(ra.Insert(Restaurant(
      "ashiana", "univ.ave.", 353, "371-0824",
      ES(spec, {{{S("mu")}, 0.9}, {{}, 0.1}}),
      ES(dish, {{{S("d34")}, 0.8}, {{S("d25")}, 0.2}}),
      ES(rating, {{{S("ex")}, 1.0}}), SupportPair::Certain())));
  return ra;
}

Result<ExtendedRelation> TableRB() {
  EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema, RestaurantSchema());
  const DomainPtr spec = SpecialityDomain();
  const DomainPtr dish = DishDomain();
  const DomainPtr rating = RatingDomain();

  ExtendedRelation rb("RB", schema);
  EVIDENT_RETURN_NOT_OK(rb.Insert(Restaurant(
      "garden", "univ.ave.", 2011, "371-2155",
      ES(spec, {{{S("si")}, 0.5}, {{S("hu")}, 0.3}, {{}, 0.2}}),
      ES(dish, {{{S("d31")}, 0.7}, {{S("d35")}, 0.3}}),
      ES(rating, {{{S("ex")}, 0.2}, {{S("gd")}, 0.8}}),
      SupportPair::Certain())));
  EVIDENT_RETURN_NOT_OK(rb.Insert(Restaurant(
      "wok", "wash.ave.", 600, "382-4165",
      ES(spec, {{{S("ca")}, 0.2}, {{S("si")}, 0.7}, {{}, 0.1}}),
      ES(dish, {{{S("d6")}, 0.5}, {{S("d7")}, 0.25}, {{S("d25")}, 0.25}}),
      ES(rating, {{{S("gd")}, 1.0}}), SupportPair::Certain())));
  EVIDENT_RETURN_NOT_OK(rb.Insert(Restaurant(
      "country", "plato.blvd", 12, "293-9111", ES(spec, {{{S("am")}, 1.0}}),
      ES(dish, {{{S("d1")}, 0.2}, {{S("d2")}, 0.8}}),
      ES(rating, {{{S("ex")}, 0.7}, {{S("gd")}, 0.3}}),
      SupportPair::Certain())));
  EVIDENT_RETURN_NOT_OK(rb.Insert(Restaurant(
      "olive", "nic.ave.", 514, "338-0355", ES(spec, {{{S("it")}, 1.0}}),
      ES(dish, {{{S("d1")}, 0.8}, {{S("d2")}, 0.2}}),
      ES(rating, {{{S("gd")}, 0.8}, {{S("avg")}, 0.2}}),
      SupportPair::Certain())));
  EVIDENT_RETURN_NOT_OK(rb.Insert(Restaurant(
      "mehl", "9th-street", 820, "333-4035", ES(spec, {{{S("mu")}, 1.0}}),
      ES(dish, {{{S("d24")}, 0.1}, {{S("d31")}, 0.9}}),
      ES(rating, {{{S("ex")}, 1.0}}), SupportPair{0.8, 1.0})));
  return rb;
}

Result<ExtendedRelation> ExpectedTable2() {
  EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema, RestaurantSchema());
  const DomainPtr spec = SpecialityDomain();
  const DomainPtr dish = DishDomain();
  const DomainPtr rating = RatingDomain();
  ExtendedRelation out("Table2", schema);
  EVIDENT_RETURN_NOT_OK(out.Insert(Restaurant(
      "garden", "univ.ave.", 2011, "371-2155",
      ES(spec, {{{S("si")}, 0.5}, {{S("hu")}, 0.25}, {{}, 0.25}}),
      ES(dish, {{{S("d31")}, 0.5}, {{S("d35"), S("d36")}, 0.5}}),
      ES(rating,
         {{{S("ex")}, 1.0 / 3}, {{S("gd")}, 1.0 / 2}, {{S("avg")}, 1.0 / 6}}),
      SupportPair{0.5, 0.75})));
  EVIDENT_RETURN_NOT_OK(out.Insert(Restaurant(
      "wok", "wash.ave.", 600, "382-4165", ES(spec, {{{S("si")}, 1.0}}),
      ES(dish, {{{S("d6")}, 1.0 / 3}, {{S("d7")}, 1.0 / 3},
                {{S("d25")}, 1.0 / 3}}),
      ES(rating, {{{S("gd")}, 0.25}, {{S("avg")}, 0.75}}),
      SupportPair::Certain())));
  return out;
}

Result<ExtendedRelation> ExpectedTable3() {
  EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema, RestaurantSchema());
  const DomainPtr spec = SpecialityDomain();
  const DomainPtr dish = DishDomain();
  const DomainPtr rating = RatingDomain();
  ExtendedRelation out("Table3", schema);
  EVIDENT_RETURN_NOT_OK(out.Insert(Restaurant(
      "mehl", "9th-street", 820, "333-4035",
      ES(spec, {{{S("mu")}, 0.8}, {{S("ta")}, 0.2}}),
      ES(dish, {{{S("d24")}, 0.4}, {{S("d31")}, 0.6}}),
      ES(rating, {{{S("ex")}, 0.8}, {{S("gd")}, 0.2}}),
      SupportPair{0.32, 0.32})));
  EVIDENT_RETURN_NOT_OK(out.Insert(Restaurant(
      "ashiana", "univ.ave.", 353, "371-0824",
      ES(spec, {{{S("mu")}, 0.9}, {{}, 0.1}}),
      ES(dish, {{{S("d34")}, 0.8}, {{S("d25")}, 0.2}}),
      ES(rating, {{{S("ex")}, 1.0}}), SupportPair{0.9, 1.0})));
  return out;
}

Result<ExtendedRelation> ExpectedTable4() {
  EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema, RestaurantSchema());
  const DomainPtr spec = SpecialityDomain();
  const DomainPtr dish = DishDomain();
  const DomainPtr rating = RatingDomain();
  ExtendedRelation out("Table4", schema);
  EVIDENT_RETURN_NOT_OK(out.Insert(Restaurant(
      "garden", "univ.ave.", 2011, "371-2155",
      ES(spec, {{{S("si")}, 0.655}, {{S("hu")}, 0.276}, {{}, 0.069}}),
      ES(dish, {{{S("d31")}, 0.7}, {{S("d35")}, 0.3}}),
      ES(rating, {{{S("ex")}, 0.143}, {{S("gd")}, 0.857}}),
      SupportPair::Certain())));
  EVIDENT_RETURN_NOT_OK(out.Insert(Restaurant(
      "wok", "wash.ave.", 600, "382-4165", ES(spec, {{{S("si")}, 1.0}}),
      ES(dish, {{{S("d6")}, 0.5}, {{S("d7")}, 0.25}, {{S("d25")}, 0.25}}),
      ES(rating, {{{S("gd")}, 1.0}}), SupportPair::Certain())));
  EVIDENT_RETURN_NOT_OK(out.Insert(Restaurant(
      "country", "plato.blvd", 12, "293-9111", ES(spec, {{{S("am")}, 1.0}}),
      ES(dish, {{{S("d1")}, 0.25}, {{S("d2")}, 0.75}}),
      ES(rating, {{{S("ex")}, 1.0}}), SupportPair::Certain())));
  EVIDENT_RETURN_NOT_OK(out.Insert(Restaurant(
      "olive", "nic.ave.", 514, "338-0355", ES(spec, {{{S("it")}, 1.0}}),
      ES(dish, {{{S("d1")}, 1.0}}),
      ES(rating, {{{S("gd")}, 0.8}, {{S("avg")}, 0.2}}),
      SupportPair::Certain())));
  EVIDENT_RETURN_NOT_OK(out.Insert(Restaurant(
      "mehl", "9th-street", 820, "333-4035", ES(spec, {{{S("mu")}, 1.0}}),
      ES(dish, {{{S("d24")}, 0.069}, {{S("d31")}, 0.931}}),
      ES(rating, {{{S("ex")}, 1.0}}), SupportPair{0.83, 0.83})));
  EVIDENT_RETURN_NOT_OK(out.Insert(Restaurant(
      "ashiana", "univ.ave.", 353, "371-0824",
      ES(spec, {{{S("mu")}, 0.9}, {{}, 0.1}}),
      ES(dish, {{{S("d34")}, 0.8}, {{S("d25")}, 0.2}}),
      ES(rating, {{{S("ex")}, 1.0}}), SupportPair::Certain())));
  return out;
}

Result<ExtendedRelation> ExpectedTable5() {
  EVIDENT_ASSIGN_OR_RETURN(SchemaPtr full_schema, RestaurantSchema());
  EVIDENT_ASSIGN_OR_RETURN(
      SchemaPtr schema,
      RelationSchema::Make({
          AttributeDef::Key("rname"),
          AttributeDef::Definite("phone"),
          AttributeDef::Uncertain("speciality", SpecialityDomain()),
          AttributeDef::Uncertain("rating", RatingDomain()),
      }));
  EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation ra, TableRA());
  ExtendedRelation out("Table5", schema);
  // Table 5 is exactly R_A restricted to (rname, phone, speciality,
  // rating, (sn,sp)).
  const auto& ra_schema = *full_schema;
  for (size_t r = 0; r < ra.size(); ++r) {
    const ExtendedTuple t = ra.row(r);
    ExtendedTuple p;
    p.cells = {t.cells[ra_schema.IndexOf("rname").value()],
               t.cells[ra_schema.IndexOf("phone").value()],
               t.cells[ra_schema.IndexOf("speciality").value()],
               t.cells[ra_schema.IndexOf("rating").value()]};
    p.membership = t.membership;
    EVIDENT_RETURN_NOT_OK(out.Insert(std::move(p)));
  }
  return out;
}

DomainPtr PositionDomain() {
  static const DomainPtr domain =
      Domain::MakeSymbolic("position",
                           {"headchef", "chef", "owner", "manager"})
          .value();
  return domain;
}

Result<SchemaPtr> ManagerSchema() {
  return RelationSchema::Make({
      AttributeDef::Key("mname"),
      AttributeDef::Definite("phone"),
      AttributeDef::Uncertain("position", PositionDomain()),
      AttributeDef::Uncertain("speciality", SpecialityDomain()),
  });
}

Result<SchemaPtr> ManagesSchema() {
  return RelationSchema::Make({
      AttributeDef::Key("rname"),
      AttributeDef::Key("mname"),
  });
}

namespace {

ExtendedTuple Manager(const char* mname, const char* phone,
                      EvidenceSet position, EvidenceSet speciality,
                      SupportPair membership) {
  ExtendedTuple t;
  t.cells = {S(mname), S(phone), std::move(position), std::move(speciality)};
  t.membership = membership;
  return t;
}

ExtendedTuple Manages(const char* rname, const char* mname,
                      SupportPair membership) {
  ExtendedTuple t;
  t.cells = {S(rname), S(mname)};
  t.membership = membership;
  return t;
}

}  // namespace

Result<ExtendedRelation> TableMA() {
  EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema, ManagerSchema());
  const DomainPtr pos = PositionDomain();
  const DomainPtr spec = SpecialityDomain();
  ExtendedRelation ma("MA", schema);
  EVIDENT_RETURN_NOT_OK(ma.Insert(Manager(
      "chen", "555-1000",
      ES(pos, {{{S("headchef")}, 0.8}, {{}, 0.2}}),
      ES(spec, {{{S("si")}, 0.7}, {{}, 0.3}}), SupportPair::Certain())));
  EVIDENT_RETURN_NOT_OK(ma.Insert(Manager(
      "kumar", "555-2000", ES(pos, {{{S("owner")}, 1.0}}),
      ES(spec, {{{S("mu")}, 1.0}}), SupportPair::Certain())));
  EVIDENT_RETURN_NOT_OK(ma.Insert(Manager(
      "lee", "555-3000",
      ES(pos, {{{S("chef")}, 0.6}, {{S("headchef")}, 0.4}}),
      ES(spec, {{{S("ca")}, 0.5}, {{}, 0.5}}), SupportPair{0.9, 1.0})));
  return ma;
}

Result<ExtendedRelation> TableMB() {
  EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema, ManagerSchema());
  const DomainPtr pos = PositionDomain();
  const DomainPtr spec = SpecialityDomain();
  ExtendedRelation mb("MB", schema);
  EVIDENT_RETURN_NOT_OK(mb.Insert(Manager(
      "chen", "555-1000", ES(pos, {{{S("headchef")}, 1.0}}),
      ES(spec, {{{S("si")}, 0.5}, {{S("hu")}, 0.3}, {{}, 0.2}}),
      SupportPair::Certain())));
  EVIDENT_RETURN_NOT_OK(mb.Insert(Manager(
      "kumar", "555-2000",
      ES(pos, {{{S("owner")}, 0.6}, {{S("manager")}, 0.4}}),
      ES(spec, {{{S("mu")}, 0.9}, {{}, 0.1}}), SupportPair::Certain())));
  EVIDENT_RETURN_NOT_OK(mb.Insert(Manager(
      "patel", "555-4000", ES(pos, {{{S("manager")}, 1.0}}),
      ES(spec, {{{S("mu")}, 1.0}}), SupportPair{0.7, 1.0})));
  return mb;
}

Result<ExtendedRelation> TableRMA() {
  EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema, ManagesSchema());
  ExtendedRelation rm("RMA", schema);
  EVIDENT_RETURN_NOT_OK(
      rm.Insert(Manages("wok", "chen", SupportPair::Certain())));
  EVIDENT_RETURN_NOT_OK(
      rm.Insert(Manages("mehl", "kumar", SupportPair{0.5, 0.5})));
  EVIDENT_RETURN_NOT_OK(
      rm.Insert(Manages("garden", "lee", SupportPair{0.8, 1.0})));
  return rm;
}

Result<ExtendedRelation> TableRMB() {
  EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema, ManagesSchema());
  ExtendedRelation rm("RMB", schema);
  EVIDENT_RETURN_NOT_OK(
      rm.Insert(Manages("wok", "chen", SupportPair::Certain())));
  EVIDENT_RETURN_NOT_OK(
      rm.Insert(Manages("mehl", "kumar", SupportPair{0.8, 1.0})));
  EVIDENT_RETURN_NOT_OK(
      rm.Insert(Manages("garden", "chen", SupportPair{0.6, 1.0})));
  return rm;
}

Result<EvidenceSet> Section21EvidenceSet() {
  EVIDENT_ASSIGN_OR_RETURN(
      DomainPtr domain,
      Domain::MakeSymbolic("speciality-full",
                           {"american", "hunan", "sichuan", "cantonese",
                            "mughalai", "italian"}));
  return EvidenceSet::FromPairs(
      domain, {{{S("cantonese")}, 1.0 / 2},
               {{S("hunan"), S("sichuan")}, 1.0 / 3},
               {{}, 1.0 / 6}});
}

Result<EvidenceSet> Section22SecondEvidence() {
  EVIDENT_ASSIGN_OR_RETURN(
      DomainPtr domain,
      Domain::MakeSymbolic("speciality-full",
                           {"american", "hunan", "sichuan", "cantonese",
                            "mughalai", "italian"}));
  return EvidenceSet::FromPairs(domain,
                                {{{S("cantonese"), S("hunan")}, 1.0 / 2},
                                 {{S("hunan")}, 1.0 / 4},
                                 {{}, 1.0 / 4}});
}

}  // namespace paper
}  // namespace evident
