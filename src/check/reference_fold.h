#ifndef CONDTD_CHECK_REFERENCE_FOLD_H_
#define CONDTD_CHECK_REFERENCE_FOLD_H_

#include <string_view>

#include "base/status.h"
#include "infer/inferrer.h"
#include "xml/dom.h"

namespace condtd {

/// The reference fold: the plain DOM walk the streaming fold
/// (StreamingFolder) is checked against. It materializes the document
/// tree and folds one child word per element, one at a time — no dedup
/// cache, no rollback journal, no per-document staging to get wrong.
/// Names intern in start-tag order, and each element's word and text
/// datatype fold at its end tag, as in the streaming fold, so the two
/// reach byte-identical SaveState text (CheckIngestionEquivalence).
/// A differential oracle only: production code folds through
/// StreamingFolder.
void ReferenceFoldDocument(const XmlDocument& doc, DtdInferrer* inferrer);

/// Parses `xml` with ParseXml, or ParseXmlLenient when the inferrer's
/// `lenient_xml` option is set, then folds it with
/// ReferenceFoldDocument. A document that fails to parse contributes
/// nothing.
Status ReferenceFoldXml(std::string_view xml, DtdInferrer* inferrer);

}  // namespace condtd

#endif  // CONDTD_CHECK_REFERENCE_FOLD_H_
