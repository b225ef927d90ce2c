#include "alphabet/alphabet.h"

#include "base/mem_estimate.h"
#include "base/strings.h"

namespace condtd {

Symbol Alphabet::Intern(std::string_view name) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  Symbol id = static_cast<Symbol>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  return id;
}

void Alphabet::Truncate(int size) {
  while (this->size() > size) {
    index_.erase(names_.back());
    names_.pop_back();
  }
}

Symbol Alphabet::Find(std::string_view name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return kInvalidSymbol;
  return it->second;
}

std::string Alphabet::NameOrPlaceholder(Symbol symbol) const {
  if (symbol >= 0 && symbol < size()) return names_[symbol];
  return Numbered("#", symbol);
}

Word Alphabet::WordFromChars(std::string_view text) {
  Word word;
  word.reserve(text.size());
  for (char c : text) word.push_back(Intern(std::string_view(&c, 1)));
  return word;
}

std::string Alphabet::WordToString(const Word& word) const {
  bool all_single = true;
  for (Symbol s : word) {
    if (Name(s).size() != 1) {
      all_single = false;
      break;
    }
  }
  std::string out;
  for (size_t i = 0; i < word.size(); ++i) {
    if (!all_single && i > 0) out += ' ';
    out += Name(word[i]);
  }
  return out;
}

size_t Alphabet::ApproxBytes() const {
  size_t bytes = sizeof(*this);
  bytes += VectorBytes(names_) + HashBytes(index_);
  for (const std::string& name : names_) bytes += StringBytes(name);
  return bytes;
}

}  // namespace condtd
