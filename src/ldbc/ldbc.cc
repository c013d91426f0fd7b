#include "ldbc/ldbc.h"

#include <algorithm>
#include <cmath>
#include <random>

namespace raqlet::ldbc {

const char* SnbSchema() {
  return R"(
CREATE GRAPH {
  (personType: Person {id INT, firstName STRING, lastName STRING,
                       gender STRING, birthday INT, creationDate INT,
                       locationIP STRING, browserUsed STRING,
                       speaks STRING, email STRING}),
  (cityType: City {id INT, name STRING, url STRING}),
  (countryType: Country {id INT, name STRING, url STRING}),
  (tagType: Tag {id INT, name STRING, url STRING}),
  (forumType: Forum {id INT, title STRING, creationDate INT}),
  (messageType: Message {id INT, content STRING, creationDate INT,
                         browserUsed STRING, locationIP STRING,
                         length INT}),
  (:personType)-[locationType: isLocatedIn {id INT}]->(:cityType),
  (:cityType)-[partType: isPartOf {id INT}]->(:countryType),
  (:personType)-[knowsType: knows {id INT, creationDate INT}]->(:personType),
  (:messageType)-[creatorType: hasCreator {id INT}]->(:personType),
  (:personType)-[likesType: likes {id INT, creationDate INT}]->(:messageType),
  (:forumType)-[memberType: hasMember {id INT, joinDate INT}]->(:personType),
  (:forumType)-[containerType: containerOf {id INT}]->(:messageType),
  (:messageType)-[tagType2: hasTag {id INT}]->(:tagType),
  (:personType)-[interestType: hasInterest {id INT}]->(:tagType)
}
)";
}

int GeneratorOptions::persons() const {
  return std::max(50, static_cast<int>(scale_factor * 1000.0));
}

namespace {

constexpr int64_t kDateBase = 20200101000000;  // pseudo-timestamp base
constexpr int64_t kDateRange = 10000000000;    // spread of creation dates

const char* kFirstNames[] = {"Ada",  "Bob",  "Cyd",  "Dan", "Eve", "Fay",
                             "Gus",  "Hana", "Ivan", "Jia", "Kim", "Leo",
                             "Mona", "Nils", "Omar", "Pia"};
const char* kLastNames[] = {"Lovelace", "Turing", "Hopper",   "Codd",
                            "Tarski",   "Datalog", "Church",  "Curry",
                            "Noether",  "Gödel",   "Dijkstra", "Knuth"};
const char* kBrowsers[] = {"Firefox", "Chrome", "Safari", "Opera"};
const char* kGenders[] = {"female", "male", "nonbinary"};

}  // namespace

Status GenerateSnbData(const schema::DlSchema& /*dl*/, Database* db,
                       const GeneratorOptions& options) {
  std::mt19937 rng(options.seed);
  const int persons = options.persons();
  const int cities = std::max(5, persons / 20);
  const int countries = std::max(3, cities / 5);
  const int tags = std::max(10, persons / 10);
  const int forums = std::max(5, persons / 10);
  const int messages = persons * 8;

  std::uniform_int_distribution<int64_t> date(0, kDateRange);
  auto pick = [&](auto& array) {
    std::uniform_int_distribution<size_t> d(0, std::size(array) - 1);
    return std::string(array[d(rng)]);
  };

  int64_t edge_id = 0;

  // Every relation is filled through one InsertBatch call: the generator
  // emits unique rows, so bulk loading skips per-row dedup rehashes.
  std::vector<Tuple> batch;

  RAQLET_ASSIGN_OR_RETURN(Relation * person, db->GetRelation("Person"));
  batch.reserve(static_cast<size_t>(persons));
  for (int i = 1; i <= persons; ++i) {
    batch.push_back({Value::Number(i), db->Str(pick(kFirstNames)),
                     db->Str(pick(kLastNames)), db->Str(pick(kGenders)),
                     Value::Number(19600101 + (rng() % 40) * 10000),
                     Value::Number(kDateBase + date(rng)),
                     db->Str("10.0." + std::to_string(i % 256) + "." +
                             std::to_string(i % 100)),
                     db->Str(pick(kBrowsers)), db->Str("en"),
                     db->Str("p" + std::to_string(i) + "@snb.test")});
  }
  RAQLET_RETURN_IF_ERROR(person->InsertBatch(batch).status());
  batch = {};

  RAQLET_ASSIGN_OR_RETURN(Relation * city, db->GetRelation("City"));
  batch.reserve(static_cast<size_t>(cities));
  for (int i = 1; i <= cities; ++i) {
    batch.push_back({Value::Number(i), db->Str("City" + std::to_string(i)),
                     db->Str("url/city/" + std::to_string(i))});
  }
  RAQLET_RETURN_IF_ERROR(city->InsertBatch(batch).status());
  batch = {};
  RAQLET_ASSIGN_OR_RETURN(Relation * country, db->GetRelation("Country"));
  batch.reserve(static_cast<size_t>(countries));
  for (int i = 1; i <= countries; ++i) {
    batch.push_back({Value::Number(i), db->Str("Country" + std::to_string(i)),
                     db->Str("url/country/" + std::to_string(i))});
  }
  RAQLET_RETURN_IF_ERROR(country->InsertBatch(batch).status());
  batch = {};
  RAQLET_ASSIGN_OR_RETURN(Relation * tag, db->GetRelation("Tag"));
  batch.reserve(static_cast<size_t>(tags));
  for (int i = 1; i <= tags; ++i) {
    batch.push_back({Value::Number(i), db->Str("Tag" + std::to_string(i)),
                     db->Str("url/tag/" + std::to_string(i))});
  }
  RAQLET_RETURN_IF_ERROR(tag->InsertBatch(batch).status());
  batch = {};
  RAQLET_ASSIGN_OR_RETURN(Relation * forum, db->GetRelation("Forum"));
  batch.reserve(static_cast<size_t>(forums));
  for (int i = 1; i <= forums; ++i) {
    batch.push_back({Value::Number(i), db->Str("Forum" + std::to_string(i)),
                     Value::Number(kDateBase + date(rng))});
  }
  RAQLET_RETURN_IF_ERROR(forum->InsertBatch(batch).status());
  batch = {};
  RAQLET_ASSIGN_OR_RETURN(Relation * message, db->GetRelation("Message"));
  batch.reserve(static_cast<size_t>(messages));
  for (int i = 1; i <= messages; ++i) {
    batch.push_back({Value::Number(i),
                     db->Str("content-" + std::to_string(i % 997)),
                     Value::Number(kDateBase + date(rng)),
                     db->Str(pick(kBrowsers)),
                     db->Str("10.1." + std::to_string(i % 256) + ".1"),
                     Value::Number(10 + static_cast<int64_t>(rng() % 1990))});
  }
  RAQLET_RETURN_IF_ERROR(message->InsertBatch(batch).status());
  batch = {};

  // Place hierarchy.
  RAQLET_ASSIGN_OR_RETURN(Relation * located,
                          db->GetRelation("Person_IS_LOCATED_IN_City"));
  std::uniform_int_distribution<int> city_of(1, cities);
  batch.reserve(static_cast<size_t>(persons));
  for (int i = 1; i <= persons; ++i) {
    batch.push_back(
        {Value::Number(i), Value::Number(city_of(rng)), Value::Number(++edge_id)});
  }
  RAQLET_RETURN_IF_ERROR(located->InsertBatch(batch).status());
  batch = {};
  RAQLET_ASSIGN_OR_RETURN(Relation * part,
                          db->GetRelation("City_IS_PART_OF_Country"));
  std::uniform_int_distribution<int> country_of(1, countries);
  batch.reserve(static_cast<size_t>(cities));
  for (int i = 1; i <= cities; ++i) {
    batch.push_back({Value::Number(i), Value::Number(country_of(rng)),
                     Value::Number(++edge_id)});
  }
  RAQLET_RETURN_IF_ERROR(part->InsertBatch(batch).status());
  batch = {};

  // KNOWS with a heavy-tailed degree distribution (Pareto-ish).
  RAQLET_ASSIGN_OR_RETURN(Relation * knows,
                          db->GetRelation("Person_KNOWS_Person"));
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> any_person(1, persons);
  for (int i = 1; i <= persons; ++i) {
    // Pareto(alpha = 1.6) truncated: most persons ~3-6 friends, a few
    // hubs with dozens.
    double u = unit(rng);
    int degree = std::min(
        persons / 2,
        2 + static_cast<int>(3.0 / std::pow(1.0 - u * 0.98, 1.0 / 1.6)) - 3);
    degree = std::max(1, degree);
    for (int k = 0; k < degree; ++k) {
      int other = any_person(rng);
      if (other == i) continue;
      batch.push_back({Value::Number(i), Value::Number(other),
                       Value::Number(++edge_id),
                       Value::Number(kDateBase + date(rng))});
    }
  }
  RAQLET_RETURN_IF_ERROR(knows->InsertBatch(batch).status());
  batch = {};

  // Message authorship: each message has exactly one creator.
  RAQLET_ASSIGN_OR_RETURN(Relation * creator,
                          db->GetRelation("Message_HAS_CREATOR_Person"));
  batch.reserve(static_cast<size_t>(messages));
  for (int i = 1; i <= messages; ++i) {
    batch.push_back({Value::Number(i), Value::Number(any_person(rng)),
                     Value::Number(++edge_id)});
  }
  RAQLET_RETURN_IF_ERROR(creator->InsertBatch(batch).status());
  batch = {};

  // Likes, membership, containment, tags, interests.
  RAQLET_ASSIGN_OR_RETURN(Relation * likes,
                          db->GetRelation("Person_LIKES_Message"));
  std::uniform_int_distribution<int> any_message(1, messages);
  batch.reserve(static_cast<size_t>(persons) * 4);
  for (int i = 0; i < persons * 4; ++i) {
    batch.push_back({Value::Number(any_person(rng)),
                     Value::Number(any_message(rng)), Value::Number(++edge_id),
                     Value::Number(kDateBase + date(rng))});
  }
  RAQLET_RETURN_IF_ERROR(likes->InsertBatch(batch).status());
  batch = {};
  RAQLET_ASSIGN_OR_RETURN(Relation * member,
                          db->GetRelation("Forum_HAS_MEMBER_Person"));
  std::uniform_int_distribution<int> any_forum(1, forums);
  batch.reserve(static_cast<size_t>(persons) * 2);
  for (int i = 0; i < persons * 2; ++i) {
    batch.push_back({Value::Number(any_forum(rng)),
                     Value::Number(any_person(rng)), Value::Number(++edge_id),
                     Value::Number(kDateBase + date(rng))});
  }
  RAQLET_RETURN_IF_ERROR(member->InsertBatch(batch).status());
  batch = {};
  RAQLET_ASSIGN_OR_RETURN(Relation * container,
                          db->GetRelation("Forum_CONTAINER_OF_Message"));
  batch.reserve(static_cast<size_t>(messages));
  for (int i = 1; i <= messages; ++i) {
    batch.push_back({Value::Number(any_forum(rng)), Value::Number(i),
                     Value::Number(++edge_id)});
  }
  RAQLET_RETURN_IF_ERROR(container->InsertBatch(batch).status());
  batch = {};
  RAQLET_ASSIGN_OR_RETURN(Relation * has_tag,
                          db->GetRelation("Message_HAS_TAG_Tag"));
  std::uniform_int_distribution<int> any_tag(1, tags);
  batch.reserve(static_cast<size_t>(messages));
  for (int i = 1; i <= messages; ++i) {
    batch.push_back({Value::Number(i), Value::Number(any_tag(rng)),
                     Value::Number(++edge_id)});
  }
  RAQLET_RETURN_IF_ERROR(has_tag->InsertBatch(batch).status());
  batch = {};
  RAQLET_ASSIGN_OR_RETURN(Relation * interest,
                          db->GetRelation("Person_HAS_INTEREST_Tag"));
  batch.reserve(static_cast<size_t>(persons));
  for (int i = 1; i <= persons; ++i) {
    batch.push_back({Value::Number(i), Value::Number(any_tag(rng)),
                     Value::Number(++edge_id)});
  }
  RAQLET_RETURN_IF_ERROR(interest->InsertBatch(batch).status());
  return Status::OK();
}

int64_t SamplePersonId(const GeneratorOptions& options) {
  return 1 + options.persons() / 3;
}

int64_t MidCreationDate() { return kDateBase + kDateRange / 2; }

const char* ShortQuery1() {
  return R"(
MATCH (n:Person {id: $personId})-[:IS_LOCATED_IN]->(p:City)
RETURN DISTINCT
  n.firstName AS firstName,
  n.lastName AS lastName,
  n.birthday AS birthday,
  n.locationIP AS locationIP,
  n.browserUsed AS browserUsed,
  p.id AS cityId,
  n.gender AS gender,
  n.creationDate AS creationDate
)";
}

const char* ComplexQuery2() {
  return R"(
MATCH (p:Person {id: $personId})-[:KNOWS]-(friend:Person)<-[:HAS_CREATOR]-(m:Message)
WHERE m.creationDate <= $maxDate
RETURN DISTINCT
  friend.id AS personId,
  friend.firstName AS personFirstName,
  friend.lastName AS personLastName,
  m.id AS messageId,
  m.content AS messageContent,
  m.creationDate AS messageCreationDate
)";
}

const char* ReachabilityQuery() {
  return R"(
MATCH (p:Person {id: $personId})-[:KNOWS*]->(q:Person)
RETURN DISTINCT q.id AS personId
)";
}

const char* ShortestPathQuery() {
  return R"(
MATCH path = shortestPath((p:Person {id: $personId})-[:KNOWS*]->(q:Person))
RETURN DISTINCT q.id AS personId, length(path) AS distance
)";
}

const char* FriendMessageCounts() {
  return R"(
MATCH (p:Person {id: $personId})-[:KNOWS]-(friend:Person)<-[:HAS_CREATOR]-(m:Message)
WITH friend, count(m) AS messageCount
RETURN DISTINCT friend.id AS personId, messageCount
)";
}

const char* FriendsWithinThreeHops() {
  return R"(
MATCH (p:Person {id: $personId})-[:KNOWS*1..3]->(q:Person)
RETURN DISTINCT q.id AS personId
)";
}

}  // namespace raqlet::ldbc
