// Golden fixture (regression) for own-header-first: an #include inside a
// block comment is not an include, so this file's first include is its
// own header. Scanned, never compiled.
/*
#include "zzz.h"
*/
#include "widgets/knob.h"

#include <string>
