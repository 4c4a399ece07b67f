# The AVX2 kernel translation unit is compiled with -mavx2. If it defined
# any external symbol besides its table accessor — a strong one, or a
# weak/COMDAT (W/V) copy of an inline function or template — the linker
# could resolve a baseline translation unit's reference to that
# AVX2-encoded copy and fault on a host without AVX2.
#
#   cmake -DNM=<nm> -DMEDIA_LIB=<libxspcl_media.a> -DWORK_DIR=<dir> \
#         -P media_simd_linkage.cmake
execute_process(COMMAND "${NM}" -C --defined-only "${MEDIA_LIB}"
                OUTPUT_FILE "${WORK_DIR}/media_simd_linkage.nm"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NM} failed on ${MEDIA_LIB} (${rc})")
endif()
file(STRINGS "${WORK_DIR}/media_simd_linkage.nm" lines)

set(in_avx2 FALSE)
set(seen_accessor FALSE)
set(bad "")
foreach(line IN LISTS lines)
  if(line MATCHES "^(.*\\.o):$")
    if(CMAKE_MATCH_1 STREQUAL "kernels_avx2.cpp.o")
      set(in_avx2 TRUE)
    else()
      set(in_avx2 FALSE)
    endif()
  elseif(in_avx2 AND line MATCHES "^[0-9a-fA-F]* *([A-Za-z]) (.*)$")
    set(type "${CMAKE_MATCH_1}")
    set(name "${CMAKE_MATCH_2}")
    # Lower-case types are local, except u/v/w (unique global, weak).
    if(type MATCHES "^[A-Zuvw]$")
      if(type STREQUAL "T" AND name STREQUAL "media::detail::avx2_ops()")
        set(seen_accessor TRUE)
      else()
        string(APPEND bad "  ${type} ${name}\n")
      endif()
    endif()
  endif()
endforeach()

if(NOT seen_accessor)
  message(FATAL_ERROR "kernels_avx2.cpp.o in ${MEDIA_LIB} does not define "
                      "media::detail::avx2_ops()")
endif()
if(NOT bad STREQUAL "")
  message(FATAL_ERROR "kernels_avx2.cpp.o exports symbols other than "
                      "media::detail::avx2_ops():\n${bad}")
endif()
message("kernels_avx2.cpp.o exports only media::detail::avx2_ops()")
