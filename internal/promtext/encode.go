package promtext

import (
	"fmt"
	"io"
	"reflect"
	"strings"
)

// Encode writes a metrics snapshot — a struct, or a pointer to one — as
// one family per prom-tagged field. A field's family is
// namespace_<key>, where key is its JSON key, and a counter's name ends
// in _total. The tag gives the shape:
//
//	prom:"counter"          one counter sample
//	prom:"gauge"            one gauge sample; a bool is 0 or 1
//	prom:"counter,name=k"   either of the above, with k in place of the JSON key
//	prom:"counter,label=l"  a struct of numbers: one family, one series
//	                        per field, labelled l=<the field's JSON key>
//	prom:"label=l"          a slice of structs: each tagged element field
//	                        is a family namespace_l_<key>, one series per
//	                        element, labelled l=<its prom:"label" field>
//	prom:"label"            the label value of a slice element
//	prom:"-"                not a metric
//
// A number or bool without a prom tag is an error, so no field reaches
// the JSON encoding of a snapshot while missing from this one.
func Encode(w io.Writer, namespace string, v any) error {
	p := NewWriter(w)
	p.encode(namespace+"_", reflect.Indirect(reflect.ValueOf(v)))
	return p.Err()
}

// encode writes the families of struct v's tagged fields, in field order.
func (p *Writer) encode(prefix string, v reflect.Value) {
	for i := 0; i < v.NumField() && p.err == nil; i++ {
		tag, ok := p.tag(v.Type().Field(i))
		if !ok {
			continue
		}
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Slice:
			// Families outer, elements inner: the format wants every
			// sample of a family in one group.
			et := f.Type().Elem()
			label := -1
			for j := 0; j < et.NumField(); j++ {
				if et.Field(j).Tag.Get("prom") == "label" {
					label = j
				}
			}
			if label < 0 {
				p.err = fmt.Errorf("promtext: %s has no prom:\"label\" field", et)
				return
			}
			for j := 0; j < et.NumField(); j++ {
				etag, ok := p.tag(et.Field(j))
				for k := 0; ok && k < f.Len(); k++ {
					el := f.Index(k)
					p.number(etag.typ, prefix+tag.label+"_"+etag.key, el.Field(j), Label{Name: tag.label, Value: el.Field(label).String()})
				}
			}
		case reflect.Struct:
			for j := 0; j < f.NumField(); j++ {
				p.number(tag.typ, prefix+tag.key, f.Field(j), Label{Name: tag.label, Value: jsonKey(f.Type().Field(j))})
			}
		default:
			p.number(tag.typ, prefix+tag.key, f)
		}
	}
}

// promTag is a parsed prom struct tag.
type promTag struct {
	typ   string // "counter" or "gauge"; empty on a labelled slice
	key   string // the JSON key, or its name= override
	label string // the label that splits the family into series
}

// tag parses f's prom tag; ok is false for a field that is not a
// metric. A malformed tag, or a number without one, sets p.err.
func (p *Writer) tag(f reflect.StructField) (t promTag, ok bool) {
	raw, tagged := f.Tag.Lookup("prom")
	kind := f.Type.Kind()
	switch {
	case p.err != nil || !f.IsExported():
		return t, false
	case !tagged:
		if isNumber(kind) {
			p.err = fmt.Errorf("promtext: field %s has no prom tag", f.Name)
		}
		return t, false
	case raw == "-" || raw == "label":
		return t, false
	}
	t.key = jsonKey(f)
	for i, opt := range strings.Split(raw, ",") {
		k, v, _ := strings.Cut(opt, "=")
		switch {
		case i == 0 && (opt == "counter" || opt == "gauge"):
			t.typ = opt
		case k == "name" && v != "":
			t.key = v
		case k == "label" && v != "":
			t.label = v
		default:
			p.err = fmt.Errorf("promtext: field %s: bad prom option %q", f.Name, opt)
			return t, false
		}
	}
	composite := kind == reflect.Struct || kind == reflect.Slice
	if (t.typ == "") != (kind == reflect.Slice) || (t.label == "") == composite {
		p.err = fmt.Errorf("promtext: field %s: prom tag %q does not fit a %s", f.Name, raw, kind)
		return t, false
	}
	return t, true
}

// number emits one sample of v, which must be a number or a bool.
func (p *Writer) number(typ, name string, v reflect.Value, labels ...Label) {
	var x float64
	switch k := v.Kind(); {
	case k >= reflect.Int && k <= reflect.Int64:
		x = float64(v.Int())
	case k >= reflect.Uint && k <= reflect.Uintptr:
		x = float64(v.Uint())
	case k == reflect.Float32 || k == reflect.Float64:
		x = v.Float()
	case k == reflect.Bool:
		if v.Bool() {
			x = 1
		}
	default:
		if p.err == nil {
			p.err = fmt.Errorf("promtext: %s: %s is not a number", name, k)
		}
		return
	}
	if typ == "counter" {
		name += "_total"
	}
	p.sample(typ, name, x, labels)
}

func isNumber(k reflect.Kind) bool {
	return k >= reflect.Bool && k <= reflect.Float64
}

// jsonKey is the key encoding/json writes f under.
func jsonKey(f reflect.StructField) string {
	if key, _, _ := strings.Cut(f.Tag.Get("json"), ","); key != "" {
		return key
	}
	return f.Name
}
