// The sparse-data regime (Sections 1.2, 7): XML arriving as web-service
// responses trickles in a few documents at a time. iDTD would
// over-specialize; CRX's strong generalization gets a sensible CHARE
// from a handful of examples, and the incremental state lets the schema
// be refined as more responses arrive — without keeping the XML around.

#include <cstdio>
#include <string>
#include <vector>

#include "dtd/model.h"
#include "infer/inferrer.h"

int main() {
  // Three early responses from a fictional stock-quote service.
  const std::vector<std::string> responses = {
      "<quote><sym>ACME</sym><bid>10</bid><ask>11</ask></quote>",
      "<quote><sym>INIT</sym><bid>5</bid><ask>6</ask><warn/><warn/>"
      "</quote>",
      "<quote><sym>EMCA</sym><last>8</last></quote>",
  };

  condtd::InferenceOptions options;
  options.learner = "crx";  // sparse regime
  condtd::DtdInferrer inferrer(options);
  for (const std::string& r : responses) {
    if (!inferrer.AddXml(r).ok()) return 1;
  }

  condtd::Symbol quote = inferrer.alphabet()->Find("quote");
  condtd::Result<condtd::ContentModel> after3 =
      inferrer.InferContentModel(quote);
  if (!after3.ok()) return 1;
  std::printf("after 3 responses  : quote %s\n",
              condtd::ContentModelToString(after3.value(),
                                           *inferrer.alphabet())
                  .c_str());

  // More responses arrive; fold them in (no re-parse of old data).
  const std::vector<std::string> more = {
      "<quote><sym>X</sym><bid>1</bid><ask>2</ask><last>1</last></quote>",
      "<quote><sym>Y</sym><last>3</last><warn/></quote>",
      "<quote><sym>Z</sym><bid>4</bid><ask>5</ask></quote>",
  };
  for (const std::string& r : more) {
    if (!inferrer.AddXml(r).ok()) return 1;
  }
  condtd::Result<condtd::ContentModel> after6 =
      inferrer.InferContentModel(quote);
  if (!after6.ok()) return 1;
  std::printf("after 6 responses  : quote %s\n",
              condtd::ContentModelToString(after6.value(),
                                           *inferrer.alphabet())
                  .c_str());

  // Contrast with iDTD on the same six responses: with this little data
  // its repair rules have to guess, and the result is a crude collapsed
  // superset (the paper's motivation for using CRX here).
  condtd::InferenceOptions idtd_options;
  idtd_options.learner = "idtd";
  condtd::DtdInferrer idtd(idtd_options);
  for (const std::vector<std::string>* batch : {&responses, &more}) {
    for (const std::string& r : *batch) {
      if (!idtd.AddXml(r).ok()) return 1;
    }
  }
  condtd::Result<condtd::ContentModel> idtd_model =
      idtd.InferContentModel(idtd.alphabet()->Find("quote"));
  if (idtd_model.ok()) {
    std::printf("iDTD on the same 6 : quote (%s)\n",
                condtd::ToString(idtd_model->regex, *idtd.alphabet())
                    .c_str());
  }
  std::printf(
      "\nCRX generalizes from very small samples (Theorem 4/5); iDTD's "
      "specific SORE is\nthe better choice once hundreds of responses "
      "have been folded in.\n");
  return 0;
}
