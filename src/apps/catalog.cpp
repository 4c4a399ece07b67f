#include "apps/catalog.hpp"

#include <climits>

#include "apps/apps.hpp"
#include "support/strings.hpp"

namespace apps {
namespace {

using support::format;

// A checked integer override in [lo, hi]. The app configs assert their
// preconditions; checking them here turns a bad key=value into an error
// instead of an abort of the process that serves it.
support::Result<int> int_value(const std::string& key,
                               const std::string& value, int lo, int hi) {
  support::Result<int64_t> v = support::parse_int(value);
  if (!v.is_ok())
    return support::invalid_argument(format(
        "catalog: %s expects an integer, got '%s'", key.c_str(),
        value.c_str()));
  if (v.value() < lo || v.value() > hi)
    return support::invalid_argument(
        format("catalog: %s must be in [%d, %d], got %lld", key.c_str(), lo,
               hi, static_cast<long long>(v.value())));
  return static_cast<int>(v.value());
}

support::Result<bool> flag_value(const std::string& key,
                                 const std::string& value) {
  SUP_ASSIGN_OR_RETURN(int v, int_value(key, value, 0, 1));
  return v != 0;
}

// Apply one override; true if `key` is known to this app.
template <typename Config>
support::Result<bool> apply_common(Config* c, const std::string& key,
                                   const std::string& value) {
  if (key == "width") {
    SUP_ASSIGN_OR_RETURN(c->width, int_value(key, value, 16, 4096));
  } else if (key == "height") {
    SUP_ASSIGN_OR_RETURN(c->height, int_value(key, value, 16, 4096));
  } else if (key == "frames") {
    SUP_ASSIGN_OR_RETURN(c->frames, int_value(key, value, 1, INT_MAX));
  } else if (key == "slices") {
    SUP_ASSIGN_OR_RETURN(c->slices, int_value(key, value, 1, 256));
  } else {
    return false;
  }
  return true;
}

// The picture-in-picture keys pip and jpip share.
template <typename Config>
support::Result<bool> apply_inset(Config* c, const std::string& key,
                                  const std::string& value) {
  if (key == "pips") {
    SUP_ASSIGN_OR_RETURN(c->pips, int_value(key, value, 1, 8));
  } else if (key == "factor") {
    SUP_ASSIGN_OR_RETURN(c->factor, int_value(key, value, 1, 16));
  } else if (key == "reconfigurable") {
    SUP_ASSIGN_OR_RETURN(c->reconfigurable, flag_value(key, value));
  } else {
    return apply_common(c, key, value);
  }
  return true;
}

// Cross-key rules, applied once every override is in so key order does
// not matter: the inset's chroma planes must keep at least one pixel,
// and the reconfigurable variants toggle a second inset (PiP-12 /
// JPiP-12).
template <typename Config>
support::Status finish_inset(Config* c, const char* app) {
  if (c->width / 2 < c->factor || c->height / 2 < c->factor)
    return support::invalid_argument(format(
        "catalog: %s factor=%d leaves an empty chroma inset at %dx%d", app,
        c->factor, c->width, c->height));
  if (c->reconfigurable && c->pips < 2) c->pips = 2;
  return support::Status::ok();
}

support::Status unknown_key(const char* app, const std::string& key) {
  return support::invalid_argument(
      format("catalog: app '%s' has no parameter '%s'", app, key.c_str()));
}

}  // namespace

const std::vector<std::string>& catalog_names() {
  static const std::vector<std::string> names = {"pip", "jpip", "blur",
                                                 "mjpeg"};
  return names;
}

support::Result<std::string> builtin_xspcl(
    const std::string& name, const std::vector<CatalogParam>& params) {
  if (name == "pip") {
    PipConfig c;
    for (const auto& [key, value] : params) {
      SUP_ASSIGN_OR_RETURN(bool known, apply_inset(&c, key, value));
      if (!known) return unknown_key("pip", key);
    }
    SUP_RETURN_IF_ERROR(finish_inset(&c, "pip"));
    return pip_xspcl(c);
  }
  if (name == "jpip") {
    JpipConfig c;
    for (const auto& [key, value] : params) {
      SUP_ASSIGN_OR_RETURN(bool known, apply_inset(&c, key, value));
      if (known) continue;
      if (key == "quality") {
        SUP_ASSIGN_OR_RETURN(c.quality, int_value(key, value, 1, 100));
      } else if (key == "grouped") {
        SUP_ASSIGN_OR_RETURN(c.grouped, flag_value(key, value));
      } else {
        return unknown_key("jpip", key);
      }
    }
    SUP_RETURN_IF_ERROR(finish_inset(&c, "jpip"));
    return jpip_xspcl(c);
  }
  if (name == "blur") {
    BlurConfig c;
    for (const auto& [key, value] : params) {
      SUP_ASSIGN_OR_RETURN(bool common, apply_common(&c, key, value));
      if (common) continue;
      if (key == "kernel") {
        SUP_ASSIGN_OR_RETURN(c.kernel, int_value(key, value, 3, 5));
        if (c.kernel == 4)
          return support::invalid_argument(
              "catalog: kernel must be 3 or 5, got 4");
      } else if (key == "reconfigurable") {
        SUP_ASSIGN_OR_RETURN(c.reconfigurable, flag_value(key, value));
      } else {
        return unknown_key("blur", key);
      }
    }
    return blur_xspcl(c);
  }
  if (name == "mjpeg") {
    MjpegDecodeConfig c;
    for (const auto& [key, value] : params) {
      SUP_ASSIGN_OR_RETURN(bool common, apply_common(&c, key, value));
      if (common) continue;
      if (key == "quality") {
        SUP_ASSIGN_OR_RETURN(c.quality, int_value(key, value, 1, 100));
      } else if (key == "restart") {
        // A DRI segment holds the interval in 16 bits.
        SUP_ASSIGN_OR_RETURN(c.restart, int_value(key, value, 0, 65535));
      } else {
        return unknown_key("mjpeg", key);
      }
    }
    return mjpeg_xspcl(c);
  }
  std::string known;
  for (const std::string& n : catalog_names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return support::invalid_argument(format(
      "catalog: unknown app '%s' (known: %s)", name.c_str(), known.c_str()));
}

support::Result<std::vector<CatalogParam>> parse_catalog_params(
    const std::vector<std::string>& tokens) {
  std::vector<CatalogParam> params;
  params.reserve(tokens.size());
  for (const std::string& tok : tokens) {
    size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0)
      return support::invalid_argument(support::format(
          "catalog: expected key=value, got '%s'", tok.c_str()));
    params.emplace_back(tok.substr(0, eq), tok.substr(eq + 1));
  }
  return params;
}

}  // namespace apps
